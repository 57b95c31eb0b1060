"""Verified enumeration toolkit for two-row set-valued standard Young tableaux
and their companion objects: 321-avoiding permutations, bicolored Motzkin-style
paths, and set-valued linear extensions of finite posets.

Every bijection, closed-form count, q-statistic, and generating-function
identity exposed here is cross-checked against independent brute-force
enumeration; the ``verify`` module (and the ``svtab verify`` command) re-runs
those checks on demand.
"""

from .core import (
    ColoredPath,
    Partition,
    Permutation,
    SetValuedTableau,
    SkewShape,
    SvtabError,
    PATH_FAMILIES,
    path_family,
    validate_svsyt,
)
from .enumerate import (
    count_paths,
    count_svsyt,
    count_two_row_union,
    gen_avoid321,
    gen_ballotlike,
    gen_paths,
    gen_svsyt,
    gen_two_row_union,
)
from .biject import (
    Triple,
    ballot_path_from_tableau,
    compose,
    contract_path,
    decompose,
    expand_path,
    path_from_tableau,
    perm_from_tableau,
    rotate_complement,
    tableau_from_ballot_path,
    tableau_from_path,
    tableau_from_perm,
)
from .closedform import (
    act_count,
    ballot_count,
    catalan,
    e_count,
    f_count,
    hook_count,
    kreweras,
    more_shapes_counts,
    narayana,
    path_family_count,
    peaks_count,
    row_sums,
)
from .stats import (
    comaj_path,
    comaj_plus_k,
    descent_set_plus_k,
    dyck_type,
    inner_peaks,
    inner_valleys,
    rl_minima,
    set_valued_q_catalan,
    set_valued_q_narayana,
)
from .series import (
    SeriesContext,
    closed_form_E,
    derived_series,
    expected_steps,
    peaks_genfun_check,
    solve_E,
)
from .posets import (
    Poset,
    SetValuedLinearExtension,
    antichain,
    chain,
    compose_extension,
    compose_extensions,
    decompose_extension,
    equidistribution_check,
    expected_ddeg,
    linear_extensions,
    pi_perm,
    qbinom,
    sum_identity_check,
    sv_linear_extensions,
    vartheta,
    young_diagram,
)

__version__ = "0.1.0"
