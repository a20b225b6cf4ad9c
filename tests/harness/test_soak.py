"""Chaos soak: seeded invariants, determinism, parallel == serial.

Also pins the shared soak runner for all three kinds: golden quick-preset
reports, temporary-directory cleanup and the full config record.
"""

import dataclasses
import hashlib
import json
import os
import tempfile

import pytest

from repro.harness.soak import (
    DriftSoakConfig,
    FleetSoakConfig,
    SoakConfig,
    render_soak_report,
    run_soak,
)
from repro.transfer import verify_artifacts


def small_config(**kwargs) -> SoakConfig:
    defaults = dict(cases=2, gigabytes=0.5, chunk_size=0.125e9, max_crashes=1)
    defaults.update(kwargs)
    return SoakConfig(**defaults)


def strip_dirs(report: dict) -> list[dict]:
    return [{k: v for k, v in case.items() if k != "dir"} for case in report["cases"]]


class TestInvariants:
    def test_all_invariants_hold_under_chaos(self, tmp_path):
        report = run_soak(small_config(), out_dir=tmp_path)
        assert report["all_passed"], report["failed_cases"]
        for case in report["cases"]:
            assert case["verified"] and case["completed"]
            assert all(case["invariants"].values()), case["invariants"]
        # Chaos actually happened somewhere across the soak: at least one
        # mid-transfer crash landed and damaged chunks were re-sent.
        assert report["total_crashes"] >= 1
        assert report["total_resent_chunks"] > 0

    def test_case_artifacts_are_independently_verifiable(self, tmp_path):
        report = run_soak(small_config(cases=1), out_dir=tmp_path)
        case_dir = report["cases"][0]["dir"]
        offline = verify_artifacts(case_dir)
        assert offline["all_verified"]
        assert offline["replay_idempotent"]
        assert (tmp_path / "soak_report.json").exists()

    def test_quick_preset(self):
        quick = SoakConfig.quick(root_seed=3)
        assert quick.cases == 3 and quick.root_seed == 3 and quick.crashes


class TestDeterminism:
    def test_same_root_seed_identical_cases(self, tmp_path):
        a = run_soak(small_config(), out_dir=tmp_path / "a")
        b = run_soak(small_config(), out_dir=tmp_path / "b")
        assert strip_dirs(a) == strip_dirs(b)

    def test_different_root_seed_different_cases(self, tmp_path):
        a = run_soak(small_config(cases=1), out_dir=tmp_path / "a")
        b = run_soak(small_config(cases=1, root_seed=1), out_dir=tmp_path / "b")
        assert strip_dirs(a) != strip_dirs(b)

    def test_parallel_identical_to_serial(self, tmp_path):
        serial = run_soak(small_config(workers=1), out_dir=tmp_path / "serial")
        parallel = run_soak(small_config(workers=2), out_dir=tmp_path / "parallel")
        assert strip_dirs(serial) == strip_dirs(parallel)


class TestReport:
    def test_render_marks_violations(self, tmp_path):
        report = run_soak(small_config(cases=1), out_dir=tmp_path)
        text = render_soak_report(report, SoakConfig)
        assert "PASS" in text and "ALL INVARIANTS HELD" in text
        report["cases"][0]["invariants"]["conservation"] = False
        report["cases"][0]["passed"] = False
        report["all_passed"] = False
        report["failed_cases"] = [0]
        text = render_soak_report(report, SoakConfig)
        assert "FAIL" in text and "vdrC" in text  # violated flag uppercased


# ------------------------------------------------------------------- golden
def report_digest(report: dict) -> str:
    """sha256 of the report JSON without config, report_path and case dirs."""
    body = {k: v for k, v in report.items() if k not in ("config", "report_path")}
    body["cases"] = [{k: v for k, v in c.items() if k != "dir"} for c in report["cases"]]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


GOLDEN = [
    pytest.param(
        SoakConfig,
        "f1f876c73214d60e1438513ee180e53f8da0b56a02d3978052982ad60d68e3d9",
        "chaos soak — 3 case(s), root seed 0\n"
        "| case | result | crashes | resumed-ok | resent | repairs | inv  |\n"
        "|------|--------|---------|------------|--------|---------|------|\n"
        "| 0    | PASS   | 0       | 0          | 1      | 1       | vdrc |\n"
        "| 1    | PASS   | 1       | 24         | 6      | 2       | vdrc |\n"
        "| 2    | PASS   | 1       | 19         | 7      | 1       | vdrc |\n"
        "inv flags: v=all_verified d=no_double_count r=replay_idempotent "
        "c=conservation (uppercase = violated)\n"
        "ALL INVARIANTS HELD\n",
        [None, None, None],
        id="soak",
    ),
    pytest.param(
        FleetSoakConfig,
        "c11ba267e4626dee427c2ecbf516c1ae014e33e032d0dff951f0498e1389c5fb",
        "fleet soak — 1 case(s) × 32 transfers / 4 tenants, root seed 0\n"
        "| case | result | done  | incidents | crashes | opened | fair | inv     |\n"
        "|------|--------|-------|-----------|---------|--------|------|---------|\n"
        "| 0    | PASS   | 32/32 | 17        | 9       | 0      | 1.18 | lrscbfd |\n"
        "inv flags: l=no_data_loss r=all_recovered s=no_starvation "
        "c=capacity_respected b=breaker_transitions_legal f=fair_goodput "
        "d=deterministic (uppercase = violated)\n"
        "ALL INVARIANTS HELD\n",
        ["e6747dcd36b15dc8e4f8aa995c332ab5b65dba12eda080bdc0d8afc1ab19dd4c"],
        id="fleet",
    ),
    pytest.param(
        DriftSoakConfig,
        "d097d10dc814da85381149e80b89179a8b310069e2124ddeb7e77e79861ea450",
        "drift soak — 3 case(s), root seed 0\n"
        "| case | result | scenario     | latency | promos | rollbacks | state      | inv    |\n"
        "|------|--------|--------------|---------|--------|-----------|------------|--------|\n"
        "| 0    | PASS   | network_ramp | 10.6s   | 1      | 0         | correcting | dalsrf |\n"
        "| 1    | PASS   | read_step    | 7.9s    | 1      | 0         | correcting | dalsrf |\n"
        "| 2    | PASS   | rollback     | 11.1s   | 1      | 1         | nominal    | dalsrf |\n"
        "inv flags: d=detected a=acted l=transitions_legal s=no_data_loss "
        "r=restored f=deterministic (uppercase = violated)\n"
        "ALL INVARIANTS HELD\n",
        [
            "ab1788bc1aa6f3400ef7b766b998c906ca3a3258bb9813af540c0f5f0e2b37d4",
            "b78e879dcfef9686fd490ca3a6d9920bbaa40c2661e84023e0258d1eca09be84",
            "825f1234c67c5066b26c013c4b93918e8a2a45631714e2382e6382b5fd1d569b",
        ],
        id="drift",
    ),
]


@pytest.mark.parametrize("kind, digest, rendered, fingerprints", GOLDEN)
def test_quick_preset_reports_are_pinned(tmp_path, kind, digest, rendered, fingerprints):
    report = run_soak(kind.quick(), out_dir=tmp_path)
    assert report_digest(report) == digest
    assert render_soak_report(report, kind) == rendered
    assert [c.get("fingerprint") for c in report["cases"]] == fingerprints


# ---------------------------------------------------------- runner contract
SMALL = [
    pytest.param(SoakConfig(cases=1, gigabytes=0.5, max_crashes=1), id="soak"),
    pytest.param(FleetSoakConfig(cases=1, transfers=4, tenants=2, gigabytes=0.1), id="fleet"),
    pytest.param(DriftSoakConfig(cases=1, determinism_check=False), id="drift"),
]


@pytest.mark.parametrize("config", SMALL)
def test_run_without_out_dir_leaves_no_temp_dirs(tmp_path, monkeypatch, config):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    report = run_soak(config)
    assert report["all_passed"], report["failed_cases"]
    assert [c["dir"] for c in report["cases"]] == [None]
    assert "report_path" not in report
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("config", SMALL)
def test_report_config_is_the_full_config_record(tmp_path, config):
    report = run_soak(config, out_dir=tmp_path)
    assert report["config"] == dataclasses.asdict(config)
    stored = json.loads(open(report["report_path"]).read())
    assert type(config)(**stored["config"]) == config
