"""The record contract: every public result type is immutable, prints as
Name(field=value, ...), and the validated ones reject bad input with the
library's error type however their fields are passed."""

import pytest

from devex import (
    AlphabetMismatch,
    DomainError,
    Estimate,
    ExactExponents,
    ExponentBounds,
    ExponentReport,
    FisherLimitReport,
    HypothesisPair,
    InadmissibleThresholds,
    LlrStats,
    MartingaleParams,
    MartingaleTrace,
    ParametricFamily,
    RateFunctionResult,
    RatioRow,
    ScalingRow,
    SimConfig,
    SimResult,
    SllResult,
    TailProbabilities,
    Thresholds,
    make_pmf,
)

P = make_pmf("01", (0.25, 0.75))
Q = make_pmf("01", (0.75, 0.25))
P_REPR = "Pmf(labels=('0', '1'), probs=(0.25, 0.75))"
TH = Thresholds(0.5, -0.25)
TH_REPR = "Thresholds(lambda_upper=0.5, lambda_lower=-0.25)"
EST = Estimate(0.5, 0.25, 0.75, 0.125)
EST_REPR = "Estimate(value=0.5, ci_low=0.25, ci_high=0.75, empirical_exponent=0.125)"
EXACT = ExactExponents(1.0, 2.0, 3.0, 4.0, 1.0, 2.0)
EXACT_REPR = ("ExactExponents(alpha1=1.0, alpha2=2.0, beta1=3.0, beta2=4.0, "
              "pe1=1.0, pe2=2.0)")
BOUNDS = ExponentBounds({(1, 1): 0.5}, 0.5, 0.25)
BOUNDS_REPR = "ExponentBounds(components={(1, 1): 0.5}, pe1=0.5, pe2=0.25)"
ROW = RatioRow(0.01, 2.0, 0.5, 0.5, 0.25)
ROW_REPR = ("RatioRow(h=0.01, divergence_ratio=2.0, chernoff_ratio=0.5, "
            "el_ratio=0.5, loosened_ratio=0.25)")

# one instance of each public record and its repr, in the
# Name(field=value, ...) form of earlier releases
RECORDS = [
    (P, P_REPR),
    (HypothesisPair(P, Q),
     f"HypothesisPair(p1={P_REPR}, p2=Pmf(labels=('0', '1'), probs=(0.75, 0.25)))"),
    (LlrStats(1, 0.5, 0.25, 1.0, ((0.25, -0.5), (0.75, 0.5))),
     "LlrStats(hypothesis_index=1, d=0.5, sigma_sq=0.25, gamma=1.0, "
     "increments=((0.25, -0.5), (0.75, 0.5)))"),
    (TH, TH_REPR),
    (RateFunctionResult(0.125, 0.5), "RateFunctionResult(value=0.125, t_star=0.5)"),
    (EXACT, EXACT_REPR),
    (BOUNDS, BOUNDS_REPR),
    (ExponentReport(EXACT, BOUNDS, BOUNDS, {}, {}, (0.5, 0.25), (2.0, 4.0), {}),
     f"ExponentReport(exact={EXACT_REPR}, refined={BOUNDS_REPR}, "
     f"azuma={BOUNDS_REPR}, epsilons={{}}, deltas={{}}, gammas=(0.5, 0.25), "
     "gamma_inv=(2.0, 4.0), improvement={})"),
    (MartingaleParams(1.0, 0.5), "MartingaleParams(d=1.0, sigma_sq=0.5)"),
    (ScalingRow(10, 0.5, 0.25, 2.0),
     "ScalingRow(n=10, bound=0.5, asymptote=0.25, ratio=2.0)"),
    (ParametricFamily("abs", (0.0, 1.0), abs, abs),
     "ParametricFamily(name='abs', domain=(0.0, 1.0), "
     "pmf_at=<built-in function abs>, score_at=<built-in function abs>)"),
    (ROW, ROW_REPR),
    (FisherLimitReport(0.5, 4.0, (ROW,), 2.0, 0.5, 0.5, 0.25, 0.5),
     f"FisherLimitReport(theta=0.5, j=4.0, rows=({ROW_REPR},), "
     "divergence_limit=2.0, chernoff_limit=0.5, el_limit=0.5, "
     "loosened_limit=0.25, a_theta=0.5)"),
    (SimConfig(10, 20, 1, TH),
     f"SimConfig(n=10, trials=20, seed=1, thresholds={TH_REPR}, "
     "priors=(0.5, 0.5))"),
    (EST, EST_REPR),
    (SimResult(10, 20, EST, EST, EST, EST, EST, EST, {"alpha1": 10}),
     "SimResult(n=10, trials=20, "
     + ", ".join(f"{k}={EST_REPR}" for k in
                 ("alpha1", "alpha2", "beta1", "beta2", "pe1", "pe2"))
     + ", counts={'alpha1': 10})"),
    (TailProbabilities(0.5, 0.25, 0.125, 0.0625),
     "TailProbabilities(alpha1=0.5, alpha2=0.25, beta1=0.125, beta2=0.0625)"),
    (MartingaleTrace((0.0, 0.5), 2, (0.5,)),
     "MartingaleTrace(values=(0.0, 0.5), hypothesis_index=2, increments=(0.5,))"),
    (SllResult(0.5, 0.25), "SllResult(mean=0.5, stderr=0.25)"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=IDS)
def test_immutable(record):
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    assert record._asdict()[field] is getattr(record, field)


# each validated record, one bad set of fields, and the error it raises
INVALID = [
    (Thresholds, {"lambda_upper": 0.0, "lambda_lower": 0.5},
     InadmissibleThresholds),
    (MartingaleParams, {"d": 1.0, "sigma_sq": 2.0}, DomainError),
    (HypothesisPair, {"p1": P, "p2": make_pmf("ab", (0.5, 0.5))},
     AlphabetMismatch),
    (SimConfig, {"n": 10, "trials": 20, "seed": 1, "thresholds": TH,
                 "priors": (0.5, 0.25)}, DomainError),
    (SimConfig, {"n": 0, "trials": 20, "seed": 1, "thresholds": TH},
     DomainError),
]


@pytest.mark.parametrize("cls, fields, error", INVALID, ids=[
    "Thresholds", "MartingaleParams", "HypothesisPair", "SimConfig-priors",
    "SimConfig-n"])
def test_validation(cls, fields, error):
    with pytest.raises(error):
        cls(**fields)
    with pytest.raises(error):
        cls(*fields.values())
