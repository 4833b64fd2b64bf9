"""Front-end substrate: branch direction prediction and the BTB.

The paper's fetch unit has an 8K-entry hybrid direction predictor and a
2K-entry 2-way set-associative BTB and can fetch past one taken branch per
cycle.  The timing model charges a redirect penalty equal to the front-end
pipeline depth on a misprediction.
"""
