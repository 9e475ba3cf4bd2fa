"""Exact arithmetic of finite abelian groups.

The library provides:

* canonical group types (invariant factors) and their primary
  decompositions, one partition per prime (``GroupType.components``);
* explicit small groups with full subgroup-lattice enumeration and
  Smith-normal-form type computations;
* the convolution algebra of abelian functions (unit delta, Moebius
  inverse, totient, generating-set counters) over exact rationals: when a
  factor depends only on |G|, summed over elementary subgroups (for mu) or
  subgroup types weighted by Birkhoff's counts, else through (subgroup
  type, quotient type) multisets computed from Hall numbers per prime;
* counting formulas for Hom/Mono/Epi/Aut, subgroup counts by type,
  Gaussian binomials, and order-profile classification, as closed forms
  per prime (Birkhoff's subgroup count and Macdonald's |Aut|) that
  enumerate nothing;
* the interstice/isometry machinery deciding when translations plus
  transpositions generate the full symmetric group;
* deliberately naive brute-force oracles for cross-validation, in
  :mod:`finabel.oracle`, and the ``verify`` suites that run them against
  the closed forms, in :mod:`finabel.verify`.  Neither is imported here,
  so the commands that use neither do not load them.

The type-level algebra (``grouptype``, ``hall``, ``functions``,
``counting``) imports nothing from the element level (``lattice``,
``symgen``, ``oracle``); the (subgroup type, quotient type) multisets are
``hall.subgroup_quotient_pairs``, which ``lattice`` re-exports.

No floating point is used anywhere in the math core: values are Python
integers and ``fractions.Fraction``.  Nothing outside the standard library
is imported.

Each layer bounds the work it is about to do by a fixed constant and
refuses more with :class:`BoundExceededError`, naming the bound and the
predicted work: factorization (``grouptype.MAX_TRIAL_DIVISOR``), element
tables (``lattice.MAX_ELEMENTS``), lattice enumeration
(``lattice.MAX_LATTICE_WORK``, which also sets the room of each group's
mask caches), Hall tables (``hall.MAX_HALL_SIZE``), the terms of every
convolution sum and the sub-partitions of the subgroup-order profile
(both ``hall.MAX_PAIRS``), and large values
(``functions.MAX_VALUE_BITS``).  No bound is a process-wide setting.
"""

from .errors import BoundExceededError, NonInvertibleError
from .grouptype import (
    GroupType,
    TRIVIAL_GROUP,
    canonicalize,
    cyclic,
    dim_p,
    is_elementary,
    min_generators,
    parse_group_spec,
    primary_parts,
    product,
    types_of_order,
    types_up_to,
)
from .lattice import (
    ConcreteGroup,
    IntMatrix,
    Subgroup,
    all_subgroups,
    element_order,
    generated_subgroup,
    quotient_type,
    smith_normal_form,
    subgroup_type,
    subgroup_type_via_snf,
    type_from_order_statistics,
)
from .hall import subgroup_quotient_pairs
from .functions import (
    AbelianFunction,
    ArithmeticFunction,
    ExactValue,
    add,
    binom_card,
    builtin_function,
    card,
    card_pow_t,
    check_multiplicative,
    convolve,
    delta,
    generating_subsets_of_size,
    generating_tuples,
    inverse,
    mu,
    mu_closed,
    n_t,
    one,
    phi,
    pointwise,
    restrict_to_cyclic,
    scale,
    subgroup_count,
    t_pow_card,
)
from .counting import (
    OrderProfile,
    aut_count,
    conjecture_search,
    element_order_profile,
    epi_count,
    gaussian_subspace_count,
    hom_count,
    isomorphic_by_element_orders,
    mono_count,
    sub_count,
    subgroup_order_profile,
    yoneda_numeric_check,
)
from .symgen import (
    Permutation,
    Transposition,
    cycle_transposition_generates,
    generates_full_symmetric,
    interstice_subgroup,
    is_isometry_mod_H,
    isometry_constant,
    isometry_group_order,
)

__version__ = "0.1.0"
