"""State isolation: no op's exact counts depend on the ops run before it."""

import pytest

from repro.opt import get_tuned_store
from repro.plan import get_plan_cache

from perfbench.core import UNTIMED, fresh_state
from perfbench.serving import Serve
from perfbench.table5 import Table5
from perfbench.tune import Tune


@pytest.mark.parametrize("cls", [Table5, Serve, Tune], ids=lambda cls: cls.name)
def test_first_op_repeats_its_counts_after_a_whole_cycle(cls):
    workload = cls(seed=3)
    with fresh_state():
        workload.setup()
    cache, store = get_plan_cache(), get_tuned_store()
    first = workload.counts(workload.run_op(workload.ops[0], UNTIMED))
    for op in workload.ops[1:]:
        workload.run_op(op, UNTIMED)
    last = workload.counts(workload.run_op(workload.ops[0], UNTIMED))
    assert first == last
    assert first["plan.kernels"] > 0
    # the process-wide cache and store are restored after every op
    assert get_plan_cache() is cache
    assert get_tuned_store() is store
