"""Reference implementations that the tests check the library against.

Each is the slow, direct form of a library route: the coset action from
subgroup membership over all of Xi(N), the primitivity marking of full
FormClassRecords by their powers, and the conjugacy classes by orbit
closure over tuples.
"""

from geosplit.core import (ConsistencyError, canon, enumerate_xi, inv, is_member_tuple, mul,
                           order_in_xi_tuple, xi_chain_heads)
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


def orbit_closure_classes(level):
    """(representative, size, order) of every conjugacy class of Xi(level),
    by orbit closure under conjugation by S and T over a {tuple: index}
    dict.  The group is listed tuple by tuple from the chains of
    `xi_chain_heads` (no key array), scanned in sorted order, so each
    representative is the least member of its class; the orders come from
    `order_in_xi_tuple`.  `census.conjugacy_classes` must agree with it."""
    n = level
    xi = sorted({canon(a, b0 + t * a, c, d0 + t * c, n)
                 for a, b0, c, d0 in xi_chain_heads(n) for t in range(n)})
    gens = [(g, inv(g, n)) for g in (canon(0, -1, 1, 0, n), canon(1, 1, 0, 1, n))]
    index = {g: i for i, g in enumerate(xi)}
    seen = bytearray(len(xi))
    out = []
    for i, g in enumerate(xi):
        if seen[i]:
            continue
        seen[i] = 1
        size = 1
        stack = [g]
        while stack:
            x = stack.pop()
            for s, si in gens:
                j = index[mul(mul(si, x, n), s, n)]
                if not seen[j]:
                    seen[j] = 1
                    size += 1
                    stack.append(xi[j])
        out.append((g, size, order_in_xi_tuple(g, n)))
    return out
