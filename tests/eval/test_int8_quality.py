"""Quality gate for the int8 LUT decode path (paper fig10 direction).

The specialized kernels keep the gather/sign/aggregation pipeline of
group-granularity quantized tables in the integer domain.  This is
*bit-identical* to the generic float64 walk (``specialize=False``) over
the same tables — the gate below asserts that
at both the kernel level (NMSE against the unquantized reference) and the
model level (perplexity under the numpy transformer), so a future change
that makes int8 lossy fails loudly instead of silently degrading quality.
"""

import numpy as np
import pytest

from repro.backends import TMACBackend
from repro.core.config import TMACConfig
from repro.core.kernel import TMACKernel
from repro.eval.nmse import nmse
from repro.eval.perplexity import evaluate_engines
from repro.eval.tasks import make_lm_task
from repro.llm.architecture import tiny_arch
from repro.llm.engine import create_engine
from repro.llm.model import TransformerModel, generate_random_weights
from repro.workloads.generator import make_gemv_case

#: Kernel NMSE ceiling for 4-bit weights (paper Table 3 decade).
NMSE_GATE = 5e-2


#: The integer-domain specialized path and the generic float64 walk.
DOMAINS = {"int8": True, "float": False}


def _config(domain):
    return TMACConfig(bits=4, specialize=DOMAINS[domain],
                      executor="vectorized")


class TestKernelGate:
    @pytest.fixture(scope="class")
    def outputs(self):
        case = make_gemv_case(m=256, k=512, bits=4, group_size=64, seed=5)
        out = {
            dtype: TMACKernel(case.qweight, _config(dtype)).matmul(
                case.activation)
            for dtype in DOMAINS
        }
        return case, out

    def test_int8_bit_identical_to_float(self, outputs):
        _, out = outputs
        np.testing.assert_array_equal(out["int8"], out["float"])

    def test_int8_nmse_within_gate(self, outputs):
        case, out = outputs
        int8_nmse = nmse(case.reference, out["int8"])
        float_nmse = nmse(case.reference, out["float"])
        assert int8_nmse <= float_nmse * 1.01 + 1e-12
        assert int8_nmse < NMSE_GATE


class TestModelGate:
    def test_int8_perplexity_matches_float(self):
        arch = tiny_arch(hidden_size=64, intermediate_size=128, num_layers=2,
                         num_heads=4, vocab_size=67, max_seq_len=64)
        weights = generate_random_weights(arch, seed=31)
        teacher = TransformerModel(arch, weights=weights)
        lm_task = make_lm_task(teacher, num_sequences=3, seq_len=12, seed=1)
        engines = [
            create_engine("reference"),
            TMACBackend(bits=4, group_size=32, config=_config("float")),
            TMACBackend(bits=4, group_size=32, config=_config("int8")),
        ]
        reference, float_path, int8_path = evaluate_engines(
            arch, engines, lm_task, weights=weights)
        assert int8_path.perplexity == pytest.approx(
            float_path.perplexity, rel=1e-9)
        # And the quantized engines stay in the same quality regime as the
        # unquantized reference (Table 4: T-MAC matches llama.cpp).
        assert int8_path.perplexity < reference.perplexity * 2.0
