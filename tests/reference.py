"""Reference implementations that the tests check the library against.

Each is the slow, direct form of a library route: the coset action from
subgroup membership over all of Xi(N), and the primitivity marking of full
FormClassRecords by their powers.
"""

from geosplit.core import ConsistencyError, enumerate_xi, is_member_tuple, mul
from geosplit.cosets import CosetTable
from geosplit.geodesics import class_of_matrix, power_traces


def act_reference(table: CosetTable):
    """The action by the definition, independent of the key rule: the
    function g -> [j such that g * r_i lies in r_j * Psi for each i], with
    Psi the members of the subgroup among all of Xi(N).  Built once per
    table; raises ConsistencyError when the representatives do not lie in
    distinct cosets that cover Xi(N).  `cosets.act_block` must agree with it."""
    n = table.level
    xi = enumerate_xi(n)
    psi = [h for h in xi if is_member_tuple(h, table.subgroup.family, n)]
    coset_of = {mul(r, h, n): j for j, r in enumerate(table.reps) for h in psi}
    if len(coset_of) != len(xi):
        raise ConsistencyError(f"the representatives of {table.subgroup} do not partition Xi")
    return lambda g: [coset_of[mul(g, r, n)] for r in table.reps]


def mark_primitivity(records_by_trace, t_max):
    """Flag imprimitive classes among full FormClassRecords (all traces up
    to t_max must be present)."""
    lookup = {t: {r.canonical_form: r for r in recs} for t, recs in records_by_trace.items()}
    for t0, recs in sorted(records_by_trace.items()):
        powers = power_traces(t0, t_max)
        for rec in recs:
            m = rec.representative_matrix
            mk = m
            for k, tk in powers[1:]:
                mk = mk * m
                target = lookup[tk][class_of_matrix(mk)]
                target.primitive = False
    return records_by_trace
