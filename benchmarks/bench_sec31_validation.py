"""§3.1 validation: client-side vs. authoritative-side views agree.

The paper confirms middleboxes do not distort its client-side analysis
by recomputing the preference distributions from the authoritative-side
captures (recursives with ≥5 queries): "the two graphs are basically
equivalent".  This bench runs the comparison on a full 2C campaign,
traced: its ``auth.query`` spans are the authoritative-side capture.
"""

from repro.analysis.report import render_table
from repro.analysis.validation import compare_views
from repro.core.experiment import run_combination
from repro.telemetry import Telemetry

from .conftest import BENCH_PROBES, BENCH_SEED


def run_validation():
    telemetry = Telemetry.enabled_bundle()
    result = run_combination(
        "2C", num_probes=BENCH_PROBES // 2, seed=BENCH_SEED, telemetry=telemetry
    )
    return compare_views(result.observations, telemetry.tracer)


def test_sec31_view_equivalence(benchmark):
    comparison = benchmark.pedantic(run_validation, rounds=1, iterations=1)

    rows = [
        ["recursives compared", str(comparison.recursives_compared)],
        ["mean |Δshare|", f"{comparison.mean_divergence:.4f}"],
        ["p90 |Δshare|", f"{comparison.p90_divergence:.4f}"],
        ["client-only recursives", str(comparison.client_only)],
        ["server-only recursives", str(comparison.server_only)],
        ["views equivalent", "yes" if comparison.views_equivalent else "no"],
    ]
    print()
    print(render_table(["metric", "value"], rows, title="§3.1 middlebox validation"))
    print('paper: "the two graphs are basically equivalent"')

    assert comparison.recursives_compared > 50
    assert comparison.views_equivalent
    assert comparison.p90_divergence < 0.10
