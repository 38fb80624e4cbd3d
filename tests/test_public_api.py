"""The public names of the package, pinned: a change that adds or drops an
export edits this list and says why."""

import types

import localities

PUBLIC = [
    "AmalgamPartialGroup",
    "AmalgamSpec",
    "AmalgamSpecError",
    "AxiomReport",
    "CheckRecord",
    "CosetRecord",
    "DeltaFamily",
    "FiniteGroup",
    "GroupPartialGroup",
    "LDeltaPair",
    "Locality",
    "LocalityConstructionError",
    "PartialGroup",
    "ProductCertificate",
    "QuotientBundle",
    "QuotientConstructionError",
    "SizeCapExceeded",
    "SubgroupRef",
    "SubsetHandle",
    "VerificationReport",
    "Word",
    "all_subgroups",
    "as_locality",
    "build_amalgam",
    "build_quotient",
    "check_axioms",
    "check_locality",
    "classify_subset",
    "coset_partition",
    "delta_close",
    "enumerate_partial_normals",
    "generate_group",
    "is_partial_normal",
    "is_up_maximal",
    "locality_from_group",
    "partial_normal_closure",
    "partial_subgroup_closure",
    "product_theorem1",
    "product_theorem2",
    "subset_product",
    "sylow_p",
    "transporter_in_K",
    "up_maximal_flags",
    "up_relates",
    "verify_quotient_lemmas",
]


def test_public_names_are_the_pinned_list():
    names = sorted(
        name
        for name, value in vars(localities).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
