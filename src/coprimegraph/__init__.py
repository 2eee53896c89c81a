"""Coprime graphs of subgroup lattices for finite groups.

Build a group, enumerate its subgroups, take the graph whose vertices are the
nontrivial proper subgroups with edges between coprime orders, then analyze it
exactly or verify the whole classification catalog::

    from coprimegraph import build, make_cyclic, analyze
    report = analyze(build(make_cyclic(30)))
"""

from .analysis import (
    AnalysisReport,
    PlanarityCertificate,
    ShapeDescriptor,
    analyze,
    chromatic_number,
    classify_shape,
    clique_number,
    contains_complete_bipartite,
    girth,
    independence_number,
    is_bipartite,
    is_planar,
    verify_kuratowski_witness,
    verify_rotation_system,
    vertex_report,
)
from .coprime import (
    CoprimeGraph,
    build,
    build_cyclic,
    graph_json,
    to_dot,
)
from .embedding import (
    EmbeddingCertificate,
    SimpleGraph,
    embed,
    maximal_independent_sets,
    parse_edge_list,
    verify_embedding,
)
from .errors import (
    CapExceeded,
    CatalogError,
    CertificateError,
    CoprimeGraphError,
    EdgeListError,
    ExactCapExceeded,
    GroupConstructionError,
    InputError,
    MisCapExceeded,
    OrderCapExceeded,
    SpecParseError,
    UndefinedCoprimeGraphError,
)
from .groups import (
    FiniteGroup,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_permutation_group,
    make_semidirect_cyclic,
    parse_group_spec,
    spec_order,
)
from .lattice import (
    SubgroupList,
    all_subgroups,
    divisors,
    factorize,
    pi,
)
from .theorems import (
    CatalogEntry,
    VerificationReport,
    load_catalog,
    run_catalog,
)

__version__ = "0.1.0"
