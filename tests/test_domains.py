"""Every public entry point, of the package and of the test references,
that takes a count, a privacy budget, a horizon or another real parameter
(a delta, beta or order) refuses a value outside its domain with
InvalidParameterError, never TypeError or OverflowError, and keeps
accepting numpy scalars."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ldpshuffle import aggregator, amplification, core, divergence, harness
from ldpshuffle.errors import InvalidParameterError
from ldpshuffle.randomizer import RandomnessStream

from reference import aggregator as ref_aggregator
from reference import amplification as ref_amplification
from reference import client as ref_client
from reference import core as ref_core
from reference import divergence as ref_divergence
from reference import shuffle as ref_shuffle
from reference.randomizer import OneBitRandomizer, binary_rr

SRC = Path(__file__).resolve().parents[1] / "src" / "ldpshuffle"

NOT_A_NUMBER = [True, "1", None, math.nan, math.inf]
BAD = {
    "count": NOT_A_NUMBER + [1.5, 0],
    "count0": NOT_A_NUMBER + [1.5, -1],  # zero is a valid count here
    "budget": NOT_A_NUMBER + [-1.0, 0.0],
    "budget0": NOT_A_NUMBER + [-1.0],  # zero is a valid budget here
    "horizon": NOT_A_NUMBER + [1.5, 0, 6],
    "unit": NOT_A_NUMBER + [0.0, 1.0, -0.5, 10 ** 400],  # in (0, 1)
    "unit0": NOT_A_NUMBER + [1.0, -0.5, -10 ** 400],  # in [0, 1)
    "order": NOT_A_NUMBER + [0.5, -1],  # in [1, inf)
}
GOOD = {"count": np.int64(2), "count0": np.int64(2), "budget": np.float64(0.5),
        "budget0": np.float64(0.5), "horizon": np.int64(8), "unit": np.float64(1e-3),
        "unit0": np.float64(0.0), "order": np.float64(2.0)}
# the group bound's regime needs eps0 < 1/2 and |S| >= 1000
GOOD_HERE = {"amplify_group.eps0": np.float64(0.25), "amplify_group.size": np.int64(2000),
             "amplify_group.delta": np.float64(1e-3)}


def _rng():
    return RandomnessStream(0, 0)


def _update(epsilon):
    state = ref_client.client_setup(4, 1, _rng())
    return ref_client.client_update(state, 1, 0, epsilon, _rng())


def _config(**kw):
    base = dict(n=4, d=8, k=1, epsilon=1.0, input_model="step-function")
    base.update(kw)
    harness.SimulationConfig(**base).validate()


# (id, call, kind, further out-of-range values)
ENTRIES = [
    ("check_count", lambda v: core.check_count(v, "x"), "count", [-1]),
    ("check_budget", lambda v: core.check_budget(v), "budget", []),
    ("check_budget.zero_ok", lambda v: core.check_budget(v, zero_ok=True), "budget0", []),
    ("check_real", lambda v: core.check_real(v, "x", 0.0, 1.0), "unit", []),
    ("check_real.closed", lambda v: core.check_real(v, "x", 0.0, 1.0, "[)"), "unit0", []),
    ("level_count", core.level_count, "horizon", [-4]),
    ("PrivacyParams", lambda v: ref_core.PrivacyParams(v), "budget0", []),
    ("PrivacyParams.delta", lambda v: ref_core.PrivacyParams(0.5, v), "unit0", []),
    ("rr_probability", core.rr_probability, "budget0", []),
    # below the normal float range the debiasing factor overflows
    ("scale_factor", core.scale_factor, "budget", [2.2250738585072014e-308, 1e-320, 5e-324]),
    ("advanced_composition.epsilon",
     lambda v: ref_core.advanced_composition(v, 0.0, 2, 1e-6), "budget0", []),
    ("advanced_composition.k",
     lambda v: ref_core.advanced_composition(0.1, 0.0, v, 1e-6), "count", []),
    ("advanced_composition.delta",
     lambda v: ref_core.advanced_composition(0.1, v, 2, 1e-6), "unit0", []),
    ("advanced_composition.delta_prime",
     lambda v: ref_core.advanced_composition(0.1, 0.0, 2, v), "unit", []),
    ("hockey_stick_delta",
     lambda v: ref_core.hockey_stick_delta([0.5, 0.5], [0.4, 0.6], v), "budget0", []),
    ("Report.level", lambda v: ref_client.Report(v, 2, 1), "count", []),
    ("Report.t", lambda v: ref_client.Report(1, v, 1), "count", []),
    ("client_setup.d", lambda v: ref_client.client_setup(v, 2, _rng()), "horizon", []),
    ("client_setup.k", lambda v: ref_client.client_setup(8, v, _rng()), "count", []),
    ("client_update", _update, "budget", []),
    ("run_client.k", lambda v: ref_client.run_client([0, 1, 0, 0], v, 1.0, _rng()), "count", []),
    ("run_client.epsilon",
     lambda v: ref_client.run_client([0, 1, 0, 0], 1, v, _rng()), "budget", []),
    ("enumerate_change_sequences.d",
     lambda v: ref_client.enumerate_change_sequences(v, 1), "horizon", []),
    ("enumerate_change_sequences.k",
     lambda v: ref_client.enumerate_change_sequences(4, v), "count", []),
    ("exact_transcript_distribution.k",
     lambda v: ref_client.exact_transcript_distribution([0, 1, 0, 0], v, 1.0), "count", []),
    ("exact_transcript_distribution.epsilon",
     lambda v: ref_client.exact_transcript_distribution([0, 1, 0, 0], 1, v), "budget0", []),
    ("max_transcript_ratio.d",
     lambda v: ref_client.max_transcript_ratio(v, 1, 1.0), "horizon", []),
    ("max_transcript_ratio.k", lambda v: ref_client.max_transcript_ratio(2, v, 1.0), "count", []),
    ("max_transcript_ratio.epsilon",
     lambda v: ref_client.max_transcript_ratio(2, 1, v), "budget0", []),
    ("SumTree", aggregator.SumTree, "horizon", []),
    ("accumulate", lambda v: ref_aggregator.accumulate([], v), "horizon", []),
    ("accumulate_arrays", lambda v: aggregator.accumulate_arrays([], [], [], v), "horizon", []),
    ("dyadic_cover.t", lambda v: aggregator.dyadic_cover(v, 8), "count", [9]),
    ("dyadic_cover.d", lambda v: aggregator.dyadic_cover(1, v), "horizon", []),
    ("dyadic_cover_merge.t", lambda v: ref_aggregator.dyadic_cover_merge(v, 8), "count", [9]),
    ("dyadic_cover_merge.d", lambda v: ref_aggregator.dyadic_cover_merge(1, v), "horizon", []),
    # at d = 8 the weight, 4 scale_factor(eps), overflows for a normal epsilon too
    ("estimate_weight.epsilon", lambda v: aggregator.estimate_weight(v, 1, 8, 1), "budget",
     [1e-320, 3e-308]),
    ("estimate_weight.k", lambda v: aggregator.estimate_weight(1.0, v, 8, 10), "count", []),
    ("estimate_weight.d", lambda v: aggregator.estimate_weight(1.0, 1, v, 10), "horizon", []),
    ("estimate_weight.reports", lambda v: aggregator.estimate_weight(1.0, 1, 8, v), "count0",
     [2 ** 63, 10 ** 400]),
    ("estimate_marginals.epsilon",
     lambda v: aggregator.estimate_marginals(aggregator.SumTree(8), v, 1), "budget",
     [1e-320, 3e-308]),
    ("estimate_marginals.k",
     lambda v: aggregator.estimate_marginals(aggregator.SumTree(8), 1.0, v), "count", []),
    # the horizon reaches the estimator only as that of the tree
    ("estimate_marginals.d",
     lambda v: aggregator.estimate_marginals(aggregator.SumTree(v), 1.0, 1), "horizon", []),
    ("SimulationConfig.n", lambda v: _config(n=v), "count", []),
    ("SimulationConfig.d", lambda v: _config(d=v), "horizon", []),
    ("SimulationConfig.k", lambda v: _config(k=v), "count", [9]),
    ("SimulationConfig.epsilon", lambda v: _config(epsilon=v), "budget", [1e-320, 3e-308]),
    ("SimulationConfig.trials", lambda v: _config(trials=v), "count", []),
    # the stream keys on 64 bits of the seed: past them a seed would alias
    ("SimulationConfig.seed", lambda v: _config(seed=v), "count0", [2 ** 64, 2.5]),
    ("SimulationConfig.beta", lambda v: _config(beta=v), "unit", []),
    # the stream's key is the pair: past 64 bits a half would alias
    ("RandomnessStream.seed", lambda v: RandomnessStream(v, 0), "count0", [2 ** 64, 2.5]),
    ("RandomnessStream.stream", lambda v: RandomnessStream(0, v), "count0", [2 ** 64, 2.5]),
    ("generate_inputs.n",
     lambda v: harness.generate_inputs(v, 8, 1, "step-function", _rng()), "count", []),
    ("generate_inputs.d",
     lambda v: harness.generate_inputs(4, v, 1, "step-function", _rng()), "horizon", []),
    ("generate_inputs.k",
     lambda v: harness.generate_inputs(4, 8, v, "step-function", _rng()), "count", [9]),
    ("theorem_error_bound.n",
     lambda v: harness.theorem_error_bound(v, 8, 1, 1.0, 0.5), "count", []),
    ("theorem_error_bound.d",
     lambda v: harness.theorem_error_bound(4, v, 1, 1.0, 0.5), "horizon", []),
    ("theorem_error_bound.k",
     lambda v: harness.theorem_error_bound(4, 8, v, 1.0, 0.5), "count", []),
    ("theorem_error_bound.epsilon",
     lambda v: harness.theorem_error_bound(4, 8, 1, v, 0.5), "budget", [1e-320, 3e-308]),
    ("theorem_error_bound.beta",
     lambda v: harness.theorem_error_bound(4, 8, 1, 1.0, v), "unit", []),
    ("amplify_shuffle.eps0", lambda v: amplification.amplify_shuffle(v, 1000, 1e-6), "budget", []),
    ("amplify_shuffle.n", lambda v: amplification.amplify_shuffle(0.5, v, 1e-6), "count",
     [1, 10 ** 400]),
    ("amplify_shuffle.delta", lambda v: amplification.amplify_shuffle(0.5, 1000, v), "unit",
     []),
    ("amplify_group.eps0", lambda v: amplification.amplify_group(v, 2000, 1e-6), "budget", []),
    ("amplify_group.size", lambda v: amplification.amplify_group(0.25, v, 1e-6), "count",
     [999, 10 ** 400]),
    ("amplify_group.delta", lambda v: amplification.amplify_group(0.25, 2000, v), "unit",
     [0.01]),
    ("per_step_epsilon.eps0", lambda v: amplification.per_step_epsilon(v, 1000), "budget", []),
    ("per_step_epsilon.n", lambda v: amplification.per_step_epsilon(0.5, v), "count",
     [1, 10 ** 400]),
    ("rdp_bound.eps0", lambda v: amplification.rdp_bound(v, 1000, 2.0), "budget", []),
    ("rdp_bound.n", lambda v: amplification.rdp_bound(0.5, v, 2.0), "count", [1, 10 ** 400]),
    ("rdp_bound.alpha", lambda v: amplification.rdp_bound(0.5, 1000, v), "order", []),
    ("binary_case_bound.eps0",
     lambda v: ref_amplification.binary_case_bound(v, 1000, 1e-6), "budget", []),
    ("binary_case_bound.n",
     lambda v: ref_amplification.binary_case_bound(0.5, v, 1e-6), "count", [1, 10 ** 400]),
    ("binary_case_bound.delta",
     lambda v: ref_amplification.binary_case_bound(0.5, 1000, v), "unit", []),
    ("shuffled_rr_count_distribution.n",
     lambda v: ref_divergence.shuffled_rr_count_distribution(v, 1, 0.5), "count", [10 ** 5]),
    ("shuffled_rr_count_distribution.m",
     lambda v: ref_divergence.shuffled_rr_count_distribution(5, v, 0.5), "count0", [6]),
    ("shuffled_rr_count_distribution.eps0",
     lambda v: ref_divergence.shuffled_rr_count_distribution(5, 2, v), "budget", []),
    ("divergence_scan.n", lambda v: divergence.divergence_scan(v, 0.5, 0.1), "count",
     [1, 10 ** 5]),
    ("divergence_scan.eps0", lambda v: divergence.divergence_scan(20, v, 0.1), "budget",
     [800.0]),
    ("divergence_scan.epsilon",
     lambda v: divergence.divergence_scan(20, 0.5, v), "budget0", []),
    ("divergence_bounds.bar",
     lambda v: divergence.divergence_bounds(20, 0.5, 0.1, v), "budget0", []),
    ("divergence_bounds.eps0",
     lambda v: divergence.divergence_bounds(20, v, 0.0, 1e-12), "budget", [800.0, 5e-324]),
    ("worst_case_divergence.n",
     lambda v: divergence.worst_case_divergence(v, 0.5, 0.1), "count", [1]),
    ("certify_amplification.n",
     lambda v: divergence.certify_amplification(v, 0.5, 1e-4), "count", [1, 10 ** 5]),
    ("certify_amplification.eps0",
     lambda v: divergence.certify_amplification(50, v, 1e-4), "budget", []),
    ("certify_amplification.delta",
     lambda v: divergence.certify_amplification(50, 0.5, v), "unit", []),
    ("OneBitRandomizer", OneBitRandomizer, "budget", []),
    ("binary_rr", lambda v: binary_rr(1, v, _rng()), "budget0", []),
    ("sample_onebit_batch.eps0",
     lambda v: ref_shuffle.sample_onebit_batch([0, 1], v, 3, _rng()), "budget", []),
    ("sample_onebit_batch.runs",
     lambda v: ref_shuffle.sample_onebit_batch([0, 1], 0.5, v, _rng()), "count", []),
]

CASES = [pytest.param(call, value, id=f"{name}-{value!r}"[:60])
         for name, call, kind, extra in ENTRIES for value in BAD[kind] + extra]


@pytest.mark.parametrize("call,value", CASES)
def test_out_of_domain_value_is_refused(call, value):
    with pytest.raises(InvalidParameterError):
        call(value)


@pytest.mark.parametrize("call,value", [pytest.param(call, GOOD_HERE.get(name, GOOD[kind]),
                                                    id=name)
                                       for name, call, kind, _ in ENTRIES])
def test_numpy_scalar_is_accepted(call, value):
    call(value)


@pytest.mark.parametrize("field,value,model", [
    pytest.param(field, value, "step-function", id=f"{field}-{value!r}")
    for field, value in [("k", 9), ("step_time", 0), ("step_time", 9), ("step_time", 2.0)]
] + [
    # a step time or an input path the input model would ignore
    ("step_time", 3, "random-changes"), ("step_time", 3, "worst-case-sparse"),
    ("input_path", "in.jsonl", "random-changes"), ("input_path", "in.jsonl", "step-function"),
])
def test_config_refuses_what_generate_inputs_refuses(field, value, model):
    # validate and generate_inputs share one input-domain check
    with pytest.raises(InvalidParameterError):
        _config(**{field: value, "input_model": model})
    kwargs = dict(n=4, d=8, k=1, input_model=model, rng=_rng())
    kwargs[field] = value
    with pytest.raises(InvalidParameterError):
        harness.generate_inputs(**kwargs)


def test_checks_return_plain_python_scalars():
    assert type(core.check_count(np.int64(3), "x")) is int
    assert type(core.check_budget(np.float64(0.5))) is float
    assert type(core.check_budget(2)) is float
    assert type(core.check_real(np.float64(0.5), "x", 0.0, 1.0)) is float
    assert core.check_real(1, "x", 0.0, 1.0, "(]") == 1.0
    assert core.level_count(np.int64(8)) == 4


def test_a_long_count_is_quoted_up_to_40_characters():
    # a grid row's n reaches check_count with up to 4300 digits
    message = "n must be an integer in [1, 10], got "
    with pytest.raises(InvalidParameterError) as err:
        core.check_count(3 * 10 ** 4000, "n", high=10)
    assert str(err.value) == message + "3" + "0" * 39 + "..."
    with pytest.raises(InvalidParameterError) as err:
        core.check_count(3 * 10 ** 38, "n", high=10)
    assert str(err.value) == message + "3" + "0" * 38
    # an int Python refuses to print (past 4300 digits) is named by its size
    for check, text in [(lambda v: core.check_count(v, "n", high=10), message),
                        (lambda v: core.check_real(v, "x", 0.0, 1.0), "x must be a real in "
                         "(0, 1), got "),
                        (core.level_count, "horizon must be a power of two, got ")]:
        with pytest.raises(InvalidParameterError) as err:
            check(10 ** 5000)
        assert str(err.value) == text + "an integer of 5001 digits"


def test_domain_checks_live_in_core():
    # the only check left outside core is the non-finite filter of the CLI's
    # JSON printer; no module, core included, compares a named real
    # parameter to its interval inline rather than through check_real
    pattern = re.compile(r"np\.integer|math\.isfinite\(")
    inline = re.compile(r"if not .*\b(delta|delta_prime|beta|alpha|q)\b\s*[<>]")
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        found += [f"{path.name}:{lineno}: {line.strip()}"
                  for lineno, line in enumerate(text.splitlines(), start=1)
                  if inline.search(line)]
        if path.name == "core.py":
            continue
        allowed = set()
        if path.name == "cli.py":
            printer = next(node for node in ast.walk(ast.parse(text))
                           if isinstance(node, ast.FunctionDef) and node.name == "_print_json")
            allowed = set(range(printer.lineno, printer.end_lineno + 1))
        for lineno, line in enumerate(text.splitlines(), start=1):
            if pattern.search(line) and lineno not in allowed:
                found.append(f"{path.name}:{lineno}: {line.strip()}")
    assert found == []
    assert not hasattr(harness, "_is_count")
