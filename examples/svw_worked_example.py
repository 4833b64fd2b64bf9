#!/usr/bin/env python
"""The paper's Figure 4 worked example, narrated step by step.

Follows one dynamic load through the four SVW events: dispatch (window
establishment), execution (store-load forwarding shrinks the window), the
conflicting store's retirement (SSBF update), and the re-execution filter
test.  Both endings are shown: Figure 4a (collision with a *younger* store
than the forwarding one -> re-execute) and Figure 4b (collision with an
*older* store -> skip).
"""

from repro.core.svw import SVWConfig, SVWEngine

ADDR = {"A": 0x1000, "B": 0x2008, "C": 0x3010, "D": 0x4018}


def fresh_engine() -> SVWEngine:
    engine = SVWEngine(SVWConfig())
    for _ in range(62):  # history: stores 1..62 dispatched and retired
        engine.ssn.dispatch_store()
        engine.ssn.retire_store()
    return engine


def play(title: str, collisions: list[tuple[int, str]]) -> None:
    print(f"--- {title} ---")
    engine = fresh_engine()
    print(f"SSN_RETIRE = {engine.ssn.retire}")

    for number in (63, 64, 65, 66):
        ssn = engine.ssn.dispatch_store()
        print(f"dispatch store {ssn}")
    load_svw = engine.ssn.retire  # the dispatch rule: ld.SVW = SSN_RETIRE
    print(f"dispatch load: ld.SVW = SSN_RETIRE = {load_svw}")
    engine.ssn.dispatch_store()  # store 67, younger than the load
    print("dispatch store 67")

    # Store 63 (address C) retires; the load executes and reads its value
    # from store 65, which also references address A.
    engine.record_store(ADDR["C"], 8, 63)
    engine.ssn.retire_store()
    load_svw = engine.svw_after_forward(load_svw, 65)
    print(f"load forwards from store 65 -> ld.SVW = {load_svw}")

    for ssn, addr_name in collisions:
        engine.record_store(ADDR[addr_name], 8, ssn)
        engine.ssn.retire_store()
        print(f"store {ssn} retires to {addr_name}: SSBF[{addr_name}] = {ssn}")

    must = engine.must_reexecute(ADDR["A"], 8, load_svw)
    print(
        f"SVW stage: SSBF[A] = {engine.ssbf.lookup(ADDR['A'], 8)} "
        f"{'>' if must else '<='} ld.SVW = {load_svw} -> re-execute? "
        f"{'Yes' if must else 'No'}"
    )
    print()


def main() -> None:
    # Figure 4a: store 66 resolved to address A -- the load issued
    # over-aggressively and must re-execute to detect the violation.
    play("Figure 4a: vulnerable collision", [(64, "D"), (65, "A"), (66, "A")])
    # Figure 4b: the colliding store is 64, older than the forwarding
    # store 65 -- the load is not vulnerable and skips re-execution.
    play("Figure 4b: non-vulnerable collision", [(64, "A"), (65, "A"), (66, "D")])


if __name__ == "__main__":
    main()
