"""Tests for the experiment harness: configs, matrix sweeps, report, CLI."""

import argparse
import itertools

import pytest

from repro.core.svw import SVWConfig
from repro.experiments import FigureResult, local_worker_fleet, matrix_spec, run_experiment
from repro.harness import cli
from repro.harness.cli import build_parser, main
from repro.harness.configs import (
    composition_configs,
    fig5_configs,
    fig6_configs,
    fig7_configs,
    fig8_configs,
    fig8_ssbf_variants,
    nlqsm_configs,
    spec_updates_configs,
    svw_replacement_configs,
)
from repro.harness.figures import EXPERIMENTS
from repro.harness.paper_data import PAPER_CLAIMS, claims_for
from repro.harness.report import check_claims, render_claims, render_figure
from repro.pipeline.config import RexMode


class TestConfigs:
    def test_fig5_store_issue_difference(self):
        configs = fig5_configs()
        assert configs["baseline"].store_issue == 1
        assert configs["NLQ"].store_issue == 2

    def test_fig6_load_latency_difference(self):
        configs = fig6_configs()
        assert configs["baseline"].load_latency == 4
        assert configs["SSQ"].load_latency == 2

    def test_fig7_squash_reuse_flag(self):
        configs = fig7_configs()
        assert configs["+SVW"].squash_reuse
        assert not configs["+SVW-SQU"].squash_reuse

    def test_fig8_covers_six_organizations(self):
        assert set(fig8_ssbf_variants()) == {
            "128", "512", "2048", "Bloom", "4-byte", "Infinite",
        }
        assert len(fig8_configs()) == 7  # + baseline

    def test_update_variants(self):
        configs = fig5_configs()
        assert not configs["+SVW-UPD"].svw.update_on_forward
        assert configs["+SVW+UPD"].svw.update_on_forward

    def test_replacement_mode(self):
        configs = svw_replacement_configs()
        assert configs["NLQ+SVW-only"].rex_mode is RexMode.SVW_ONLY

    def test_nlqsm_pair_differs_only_in_invalidations(self):
        """The config names are part of each cell's stats fingerprint."""
        configs = nlqsm_configs(400)
        baseline, noisy = configs["baseline"], configs["invalidations"]
        assert (baseline.name, noisy.name) == ("nlqsm-0", "nlqsm-400")
        assert (baseline.invalidation_interval, noisy.invalidation_interval) == (0, 400)
        assert noisy.derive(baseline.name, invalidation_interval=0) == baseline
        assert baseline.svw.ssbf_kind == "banked"

    def test_spec_updates_pair_differs_only_in_speculative_updates(self):
        """Section 3.6's gap is the SSBF update policy and nothing else."""
        configs = spec_updates_configs()
        atomic, speculative = configs["baseline"], configs["speculative"]
        assert not atomic.svw.speculative_updates
        assert speculative.svw.speculative_updates
        assert speculative.derive(
            atomic.name, svw=SVWConfig(speculative_updates=False)
        ) == atomic

    def test_composition_has_rle_and_ssq(self):
        combined = composition_configs()["combined"]
        assert combined.rle and combined.lsu.value == "ssq"


@pytest.fixture(scope="module")
def tiny_result():
    return run_experiment(
        matrix_spec(
            "fig5", fig5_configs(), benchmarks=["gzip"], n_insts=2500, warmup=500
        )
    )


class TestRunnerAndReport:
    def test_result_structure(self, tiny_result):
        assert tiny_result.benchmarks == ["gzip"]
        assert set(tiny_result.stats["gzip"]) == set(fig5_configs())

    def test_speedup_of_baseline_is_zero(self, tiny_result):
        assert tiny_result.speedup_pct("gzip", "baseline") == pytest.approx(0.0)

    def test_render_has_both_panels(self, tiny_result):
        text = render_figure(tiny_result)
        assert "% loads re-executed" in text
        assert "% speedup" in text
        assert "gzip" in text

    def test_claims_checked(self, tiny_result):
        checks = check_claims(tiny_result)
        assert checks, "figure 5 has recorded paper claims"
        rendered = render_claims(tiny_result)
        assert "paper vs measured" in rendered

    def test_max_reexec_rate(self, tiny_result):
        bench, rate = tiny_result.max_reexec_rate("NLQ")
        assert bench == "gzip" and 0 <= rate <= 1


class TestPaperData:
    def test_claims_are_well_formed(self):
        for claim in PAPER_CLAIMS:
            assert claim.experiment and claim.metric and claim.source

    def test_fig_claims_present(self):
        for fig in ("fig5", "fig6", "fig7", "fig8"):
            assert claims_for(fig)

    def test_headline_claim_recorded(self):
        overall = claims_for("overall")
        assert any(c.value == 0.85 for c in overall)


#: A command line per numeric flag whose value is out of range.
BAD_NUMERIC_INPUT = {
    "--insts": ["fig5", "--insts", "0"],
    "--jobs": ["fig5", "--benchmarks", "gcc", "--insts", "500", "--jobs", "-2"],
    "--port": ["worker", "--port", "70000"],
    "--max-attempts": ["campaignd", "--max-attempts", "0"],
    "--rounds": ["fuzz", "--rounds", "0"],
}


class TestCLI:
    def test_cli_runs_fig5_subset(self, capsys):
        exit_code = main(
            ["fig5", "--insts", "2000", "--benchmarks", "gzip", "--quiet"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "% loads re-executed" in output

    def test_unknown_benchmark_exits_1_listing_the_known_names(self):
        """Figure and campaign commands resolve ``--benchmarks`` by name,
        before any backend or daemon connection is set up."""
        for argv in (
            ["fig5", "--benchmarks", "gcc,nope", "--quiet"],
            ["status", "fig5", "--benchmarks", "nope", "--campaign", "127.0.0.1:1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            message = str(excinfo.value.code)
            assert message.startswith(f"{argv[0]}: unknown workload 'nope'")
            assert "known names: " in message and "gcc" in message

    def test_cli_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_one_experiment_table(self, monkeypatch):
        """The experiment subcommands, the members of ``all`` and the
        campaign commands' targets are all ``figures.EXPERIMENTS``."""
        others = {
            "all", "goldens", "worker", "campaignd",
            "fsck", "fuzz", "submit", "status", "cancel",
        }
        (commands,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(commands.choices) - others == set(EXPERIMENTS)
        assert others <= set(commands.choices)
        (target,) = [a for a in commands.choices["submit"]._actions if a.dest == "target"]
        assert set(target.choices) == set(EXPERIMENTS)

        ran = []

        def record(args, name, spec, backend, store):
            ran.append(name)
            return FigureResult(spec.name, spec.baseline, spec.config_order, [])

        monkeypatch.setattr(cli, "_run_figure", record)
        assert main(["all", "--benchmarks", "gcc", "--quiet"]) == 0
        assert ran == sorted(EXPERIMENTS)

    def test_backends_write_byte_identical_json(self, tmp_path):
        """One sweep run serially, with ``--jobs 2`` and on a
        ``--remote-workers`` list of two loopback agents writes the same
        ``--json`` bytes: the backend equivalence proof (CI's
        ``backend-equivalence`` job does the same with ``cmp``)."""
        outputs = {}
        with local_worker_fleet(2) as fleet:
            for name, backend in (
                ("serial", []),
                ("jobs", ["--jobs", "2"]),
                ("remote", ["--remote-workers", ",".join(fleet)]),
            ):
                path = tmp_path / f"{name}.json"
                argv = ["fig5", "--benchmarks", "gcc", "--insts", "1500", "--json", str(path)]
                assert main([*argv, "--quiet", *backend]) == 0
                outputs[name] = path.read_bytes()
        assert outputs["jobs"] == outputs["serial"]
        assert outputs["remote"] == outputs["serial"]

    @pytest.mark.parametrize("flag", list(BAD_NUMERIC_INPUT))
    def test_bad_numeric_input_exits_2_naming_the_flag(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(BAD_NUMERIC_INPUT[flag])
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    def test_campaign_and_remote_workers_are_exclusive_everywhere(self, capsys):
        """Every sweep command chooses its backend the same way: any two of
        ``--jobs``, ``--remote-workers`` and ``--campaign`` are a usage
        error under the command's own usage line."""
        flags = {
            "--jobs": "2",
            "--remote-workers": "127.0.0.1:2",
            "--campaign": "127.0.0.1:1",
        }
        for command in ("fig5", "fuzz"):
            for first, second in itertools.combinations(flags, 2):
                with pytest.raises(SystemExit) as excinfo:
                    main([command, first, flags[first], second, flags[second], "--quiet"])
                assert excinfo.value.code == 2
                err = capsys.readouterr().err
                assert err.startswith(f"usage: svw-repro {command} [-h]")
                assert f"argument {second}: not allowed with argument {first}" in err

    @pytest.mark.parametrize("command", ["fig5", "fuzz"])
    def test_an_unreachable_backend_is_one_line_and_exit_1(self, command, capsys):
        """A sweep whose backend cannot finish it reports why in one stderr
        line, not a traceback: here every worker refuses the connection."""
        argv = [command, "--insts", "1000", "--remote-workers", "127.0.0.1:1", "--quiet"]
        if command == "fig5":
            argv += ["--benchmarks", "gcc"]
        else:
            argv += ["--workloads", "gcc", "--rounds", "1"]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"svw-repro {command}: ")
        assert "unfinished after losing all workers" in line

    def test_an_unreachable_campaign_daemon_is_one_line_and_exit_1(self, monkeypatch, capsys):
        from repro.experiments.campaign import CampaignBackend, CampaignUnreachableError

        def unreachable(self, requests, progress=None):
            raise CampaignUnreachableError(f"campaign daemon at {self.address} unreachable")

        monkeypatch.setattr(CampaignBackend, "run", unreachable)
        argv = ["fig5", "--benchmarks", "gcc", "--insts", "1000", "--quiet"]
        assert main([*argv, "--campaign", "127.0.0.1:1"]) == 1
        assert capsys.readouterr().err == (
            "svw-repro fig5: campaign daemon at 127.0.0.1:1 unreachable\n"
        )
