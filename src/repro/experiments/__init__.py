"""``repro.experiments`` — the paper's evaluation harness.

One module per table/figure; each exposes ``run_*`` (returns raw data) and
``format_*`` (renders the paper-style rows/series as text).
"""

from .configs import SCALES, WorkloadConfig, get_workload, make_environment
from .fig1 import format_fig1, run_fig1, toy_progress_walk
from .fig2 import format_fig2, run_fig2
from .fig3 import format_fig3, run_fig3
from .fig4 import curve_window_deviation, format_fig4, run_fig4
from .fig5 import format_fig5, run_fig5
from .fig6 import format_fig6, run_fig6
from .fig8 import format_fig8, run_fig8
from .fig9 import ABLATION_SCHEMES, format_fig9, run_fig9
from .fig10 import BETAS, THRESHOLD_COMBOS, format_fig10, run_fig10
from .multiseed import MultiSeedSummary, format_multiseed, run_multiseed
from .overhead import format_overhead, run_overhead
from .probe import ProbeResult, probe_curves
from .report import cdf_points, downsample, format_series, format_table
from .runner import RunSpec, SchemeResult, run_scheme
from .table1 import SCHEMES, format_fig7, format_table1, run_table1

__all__ = [
    "WorkloadConfig",
    "get_workload",
    "make_environment",
    "SCALES",
    "SchemeResult",
    "RunSpec",
    "run_scheme",
    "probe_curves",
    "ProbeResult",
    "run_fig1",
    "format_fig1",
    "toy_progress_walk",
    "run_fig2",
    "format_fig2",
    "run_fig3",
    "format_fig3",
    "run_fig4",
    "format_fig4",
    "curve_window_deviation",
    "run_fig5",
    "format_fig5",
    "run_table1",
    "format_table1",
    "format_fig7",
    "SCHEMES",
    "run_fig6",
    "format_fig6",
    "run_fig8",
    "format_fig8",
    "run_fig9",
    "format_fig9",
    "ABLATION_SCHEMES",
    "run_fig10",
    "format_fig10",
    "BETAS",
    "THRESHOLD_COMBOS",
    "run_overhead",
    "run_multiseed",
    "format_multiseed",
    "MultiSeedSummary",
    "format_overhead",
    "format_table",
    "format_series",
    "cdf_points",
    "downsample",
]
