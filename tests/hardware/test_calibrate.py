"""Host calibration: fitting, persistence, and the live accuracy gate."""

import json
import os

import numpy as np
import pytest

from repro.hardware import M2_ULTRA
from repro.hardware.calibrate import (
    PROBE_SHAPES,
    CalibrationProfile,
    ProbeResult,
    ProbeShape,
    _features,
    _fit,
    _nonnegative_lstsq,
    _probe_config,
    calibrate,
    load_profile,
)
from repro.hardware.cost_model import CostModel

TRUE_COEFFICIENTS = {
    "lut_base_s": 2e-5,
    "lut_per_elem_s": 3e-9,
    "span_base_s": 8e-5,
    "gather_per_elem_s": 2e-9,
    "aggregate_per_elem_s": 1e-9,
    "recombine_per_iter_s": 4e-9,
}


def synthetic_probes(coefficients=TRUE_COEFFICIENTS):
    """Probe results whose timings follow an exact linear cost model."""
    probes = []
    for spec in PROBE_SHAPES:
        shape = ProbeShape(*spec)
        config = _probe_config(shape.bits)
        lut_elems, gather, aggregate, recombine = _features(shape, config)
        lut_s = (coefficients["lut_base_s"]
                 + coefficients["lut_per_elem_s"] * lut_elems)
        span_s = (coefficients["span_base_s"]
                  + coefficients["gather_per_elem_s"] * gather
                  + coefficients["aggregate_per_elem_s"] * aggregate
                  + coefficients["recombine_per_iter_s"] * recombine)
        probes.append(ProbeResult(
            shape=shape, lut_elems=lut_elems, gather_elems=gather,
            aggregate_elems=aggregate, recombine_iters=recombine,
            lut_build_s=lut_s, span_s=span_s, total_s=lut_s + span_s,
        ))
    return probes


def synthetic_profile(cores=1, chunk_elements=None,
                      coefficients=TRUE_COEFFICIENTS):
    profile = CalibrationProfile(
        host="testhost", cores=cores, numpy_version=np.__version__,
        repeats=1, chunk_elements=chunk_elements, chunk_timings_s={},
        coefficients=dict(coefficients), probes=synthetic_probes(),
    )
    for probe in profile.probes:
        probe.predicted_s = profile.predict_gemm_seconds(
            probe.shape.n, probe.shape.m, probe.shape.k,
            _probe_config(probe.shape.bits), probe.shape.group_size)
    return profile


class TestFitting:
    def test_fit_recovers_exact_linear_costs(self):
        fitted = _fit(synthetic_probes())
        for name, truth in TRUE_COEFFICIENTS.items():
            assert fitted[name] == pytest.approx(truth, rel=1e-6), name

    def test_synthetic_profile_is_self_consistent(self):
        profile = synthetic_profile()
        assert profile.max_relative_error() == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_lstsq_clamps_negative_slopes(self):
        design = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        target = np.array([3.0, 2.0, 1.0])  # plain lstsq slope = -1
        coef = _nonnegative_lstsq(design, target)
        assert (coef >= 0).all()
        assert coef[1] == 0.0
        assert coef[0] == pytest.approx(target.mean())

    def test_prediction_monotone_in_problem_size(self):
        profile = synthetic_profile()
        config = _probe_config(4)
        small = profile.predict_gemv_seconds(512, 1024, config)
        large = profile.predict_gemv_seconds(2048, 4096, config)
        assert 0 < small < large


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        profile = synthetic_profile(cores=4, chunk_elements=1 << 20)
        path = tmp_path / "calibration.json"
        profile.save(str(path))
        loaded = CalibrationProfile.load(str(path))
        assert loaded.coefficients == profile.coefficients
        assert loaded.cores == 4
        assert loaded.chunk_elements == 1 << 20
        assert len(loaded.probes) == len(profile.probes)
        assert loaded.probes[0].shape == profile.probes[0].shape
        assert loaded.max_relative_error() == pytest.approx(
            profile.max_relative_error())

    def test_load_profile_missing_returns_none(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
        assert load_profile() is None
        assert load_profile(str(tmp_path / "absent.json")) is None

    def test_load_profile_from_env(self, tmp_path, monkeypatch):
        path = tmp_path / "calibration.json"
        synthetic_profile(cores=3).save(str(path))
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        profile = load_profile()
        assert profile is not None
        assert profile.cores == 3

    def test_load_committed_profile_with_stale_gather_keys(self):
        """The committed profile predates the single gather driver: it
        still carries ``gather_variant``/``gather_timings_s``, which load
        ignores."""
        path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                            "benchmarks", "results", "calibration.json")
        with open(path, encoding="utf-8") as fh:
            assert "gather_variant" in json.load(fh)
        profile = load_profile(path)
        assert profile is not None
        assert profile.probes
        assert profile.predict_gemv_seconds(512, 2048, _probe_config(4)) > 0


class TestCostModelAnchoring:
    def test_calibration_rescales_pool_decision(self):
        # Slow host: measured serial latencies are large relative to the
        # absolute IPC term, so sharding across processes pays off.
        slow = {k: v * 50 for k, v in TRUE_COEFFICIENTS.items()}
        model = CostModel(M2_ULTRA, calibration=synthetic_profile(
            cores=8, coefficients=slow))
        config = _probe_config(4)
        assert model.pool_dispatch_choice(8, 4096, 4096, config, 8) == "process"
        # Near-zero measured cost: nothing amortizes the IPC term.
        fast = {k: v * 1e-6 for k, v in TRUE_COEFFICIENTS.items()}
        model = CostModel(M2_ULTRA, calibration=synthetic_profile(
            cores=8, coefficients=fast))
        assert model.pool_dispatch_choice(8, 4096, 4096, config, 8) == "thread"


class TestLiveCalibration:
    @pytest.mark.skipif(
        os.environ.get("REPRO_SANITIZE", "") not in ("", "0"),
        reason="sanitizer canary checksums add non-linear per-dispatch "
               "overhead the cost fit cannot (and should not) model")
    def test_quick_calibration_meets_accuracy_gate(self):
        """Acceptance: the fitted model predicts measured mpGEMV latency
        within 25% on the probed decode shapes."""
        profile = calibrate(quick=True, repeats=3, sweep_chunks=False)
        assert all(v >= 0 for v in profile.coefficients.values())
        assert profile.probes, "calibration kept no probe evidence"
        assert profile.max_relative_error(gemv_only=True) <= 0.25
