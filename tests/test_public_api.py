"""The public API, pinned: a name joins or leaves ``pelve.__all__`` only on
purpose, with this list changed in the same commit."""

import dataclasses

import pelve

PUBLIC = [
    "AlphaOutOfRange", "DEFAULT_C_TOL", "DEFAULT_REL_TOL", "DistributionModel",
    "EsMethod", "EsResult", "ExcessGPD", "ExcessGPDBelowThreshold",
    "ExcessGPDLevelBelowBase", "Exponential", "GeneralizedPareto", "GiniParams",
    "InvalidParameter", "LevelOutOfRange", "MalformedCsv", "NoClosedForm",
    "NoFiniteEstimates", "NonMonotoneDates", "NonPositivePrice", "Normal",
    "OrderOutOfRange", "OrderedSample", "Pareto", "PelveColumns", "PelveError",
    "PelveResult", "QuadratureNonConvergence", "QuantileOverflow", "SampleTooSmall",
    "StudyConfig", "StudyResult", "Uniform", "__version__", "empirical_es_n",
    "empirical_pelve", "empirical_pelve_rows", "empirical_var", "es_n",
    "es_n_quadrature", "es_n_weights", "export_histogram", "gini_shortfall",
    "harmonic_number", "is_degenerate", "pelve", "pelve2_rv_limit", "pelve_closed",
    "pelve_exists", "pelve_from_quantile", "quantile", "run_study", "sample",
    "tail_gini", "tail_quantile",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(pelve.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(pelve, name), name
    # The study's histogram comes from export_histogram only.
    fields = [f.name for f in dataclasses.fields(pelve.StudyResult)]
    assert fields == ["estimates", "finite_count", "mean", "stddev", "failures"]
