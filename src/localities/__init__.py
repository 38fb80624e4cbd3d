"""Computational algebra engine for finite partial groups and localities.

Builds amalgam partial groups and group-derived localities, classifies
subsets, certifies products of partial normal subgroups, constructs
quotient localities, and machine-verifies the structural lemmas behind all
of it on every instance it touches.

Every partial group is a PartialGroup, held as its tables: a domain
automaton and a raw product, from which its product, conjugation and
walker arrays are gathered.  GroupPartialGroup, AmalgamPartialGroup and
the locality and quotient partial groups build those tables.

Every name exported here is reached from a command in localities.cli, but
for the quotient's four definitional forms: LDeltaPair, is_up_maximal,
transporter_in_K and up_relates.  up_maximal_flags replaced them in the
commands; they stay while the benchmark's tracer (perfbench/tracing.py)
puts a span on quotient.is_up_maximal.
"""

from .groups import (
    FiniteGroup,
    SizeCapExceeded,
    SubgroupRef,
    all_subgroups,
    generate_group,
    sylow_p,
)
from .locality import (
    DeltaFamily,
    Locality,
    LocalityConstructionError,
    as_locality,
    check_locality,
    delta_close,
    locality_from_group,
)
from .normal import (
    ProductCertificate,
    enumerate_partial_normals,
    is_partial_normal,
    partial_normal_closure,
    product_theorem1,
    product_theorem2,
)
from .partial import (
    AmalgamPartialGroup,
    AmalgamSpec,
    AmalgamSpecError,
    AxiomReport,
    GroupPartialGroup,
    PartialGroup,
    SubsetHandle,
    Word,
    build_amalgam,
    check_axioms,
    classify_subset,
    partial_subgroup_closure,
    subset_product,
)
from .quotient import (
    CosetRecord,
    LDeltaPair,
    QuotientBundle,
    QuotientConstructionError,
    build_quotient,
    coset_partition,
    is_up_maximal,
    transporter_in_K,
    up_maximal_flags,
    up_relates,
    verify_quotient_lemmas,
)
from .report import CheckRecord, VerificationReport

__version__ = "0.1.0"
