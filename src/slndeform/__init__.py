"""Exact computation of the deformed sl(n) link homology of planar diagrams.

The pipeline: parse a diagram, build the cube of resolutions, enumerate
admissible roots-of-unity states, assemble the chain complex (integral,
rescalable over Q(zeta_n)), and compute its homology by exact linear
algebra -- then check
the answer against the closed form (n^l generators in degrees read off
linking numbers) and against the no-linear-algebra survivor construction.
"""

from .chain import (
    ChainBasisElement,
    DeformedComplex,
    LocalType,
    build_complex,
    classify_local,
    matched_pairs,
    rescale_basis,
)
from .cyclotomic import CycloField, CycloNumber, cyclotomic_polynomial, root
from .diagram import (
    Crossing,
    DiagramError,
    LinkDiagram,
    linking_matrix,
    parse,
    parse_pd,
    parse_signed,
    render_signed,
    writhe,
)
from .errors import InternalCheckError, SizeBoundError
from .fixtures import FIXTURES, fixture, fixture_names
from .homology import (
    CrossValidation,
    GeneratorDescriptor,
    HomologyResult,
    closed_form,
    compute_homology,
    cross_validate,
    matrix_rank,
    survivors_combinatorial,
)
from .potential import (
    MultiPoly,
    PotentialContext,
    admissible_tuple,
    g_poly,
    lemma_brute_check,
    pi_poly,
    u1_poly,
    u2_poly,
)
from .resolution import Resolution, ThickEdge, degree, p_parity, resolve
from .states import (
    StateAlgebra,
    StateFunction,
    enumerate_admissible,
    generator_action,
    idempotent,
    verify_projector_identities,
)

__version__ = "0.1.0"
