"""Ablations: pruning power, H(c) backing structure, load strategy."""

from repro.bench import emit
from repro.bench.experiments import run_ablation


def test_ablation_series(benchmark, capsys, scale):
    tables = benchmark.pedantic(lambda: run_ablation(scale), rounds=1)
    emit(tables, "ablation", capsys)
    prune, structure, _load, frameworks, _orientation, builders = tables
    # The tighter bound never evaluates more edges than the looser one,
    # and both beat the full scan.
    for _name, edges, evals_md, evals_cn, full in prune.rows:
        assert evals_cn <= evals_md <= full
    # Surgical bisect updates beat rebuild-and-resort array updates.
    for row in structure.rows:
        _name, _ib, _ab, index_upd, array_upd = row
        assert index_upd < array_upd
    # Both online frameworks prune relative to the full scan.
    for _name, _t_dq, _t_ord, evals_dq, evals_ord in frameworks.rows:
        assert evals_dq > 0
        assert evals_ord > 0
    # The bitset builder is competitive with the best alternative.
    for _name, t_basic, t_fast, t_bitset in builders.rows:
        assert t_bitset <= 1.5 * min(t_basic, t_fast)
