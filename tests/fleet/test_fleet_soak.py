"""Fleet chaos soak: per-case invariants, fairness bound, determinism check."""

from repro.harness.soak import FleetSoakConfig, render_soak_report, run_soak


def small_config(**kwargs):
    kwargs.setdefault("cases", 1)
    kwargs.setdefault("transfers", 8)
    kwargs.setdefault("tenants", 2)
    kwargs.setdefault("gigabytes", 0.1)
    kwargs.setdefault("root_seed", 0)
    return FleetSoakConfig(**kwargs)


class TestFleetSoak:
    def test_invariants_hold_under_chaos(self, tmp_path):
        report = run_soak(small_config(), out_dir=tmp_path)
        assert report["all_passed"], report["cases"]
        case = report["cases"][0]
        assert case["completed"] == case["admitted"] == 8
        assert case["unrecovered_jobs"] == []
        for name in (
            "no_data_loss", "all_recovered", "no_starvation", "capacity_respected",
            "breaker_transitions_legal", "fair_goodput", "deterministic",
        ):
            assert case["invariants"][name], name

    def test_determinism_check_compares_fingerprints(self, tmp_path):
        report = run_soak(small_config(), out_dir=tmp_path)
        assert report["cases"][0]["invariants"]["deterministic"]
        # And the whole soak is reproducible from the root seed.
        replay = run_soak(small_config(), out_dir=tmp_path / "again")
        assert (
            replay["cases"][0]["fingerprint"] == report["cases"][0]["fingerprint"]
        )

    def test_artifacts_land_in_out_dir(self, tmp_path):
        report = run_soak(small_config(), out_dir=tmp_path)
        assert (tmp_path / "fleet_soak_report.json").exists()
        assert (tmp_path / "fleet000" / "fleet_report.json").exists()
        assert (tmp_path / "fleet000" / "case.json").exists()
        assert report["report_path"] == str(tmp_path / "fleet_soak_report.json")

    def test_quick_preset_is_ci_scale(self):
        config = FleetSoakConfig.quick(root_seed=3)
        assert config.transfers >= 32
        assert config.tenants >= 4
        assert config.determinism_check

    def test_render_report(self, tmp_path):
        report = run_soak(small_config(), out_dir=tmp_path)
        text = render_soak_report(report, FleetSoakConfig)
        assert "fleet soak" in text
        assert "ALL INVARIANTS HELD" in text
        assert "deterministic" in text
