"""moricone: exact rational cone computations for curves and divisors on
two-step blowups of surface products.

The package has seven parts:

* :mod:`moricone.exact` — the core every verdict rests on: exact vectors,
  polyhedral cones as sorted primitive rays, elimination, and the re-check
  of infeasibility certificates.
* :mod:`moricone.cones` — the cone engine, which no verdict uses and the
  package does not import: dual cones by double description,
  membership/equality certificates, and a small exact LP solver with
  infeasibility certificates.
* :mod:`moricone.delpezzo` — numerical models of del Pezzo surfaces: Picard
  lattice, NE generators, (-1)-classes and nef-cone rays as Weyl orbits.
* :mod:`moricone.blowup` — the two-step blowup engine: relative cones,
  intersection table and the contraction classifier.
* :mod:`moricone.certificates` — chain- and grid-style nefness certificates,
  their verifiers, and the builder of product certificates from the two
  factor chains of the two-step construction.
* :mod:`moricone.scenario` — the del Pezzo product scenario: curve catalog,
  claimed cone generators, theorem verifier, Fano classification.
* :mod:`moricone.cli` — the command-line front end.

All arithmetic is exact (ints and fractions); nothing is ever rounded.
"""

__version__ = "0.1.0"

from .exact import (  # noqa: F401
    ConeError, DimensionMismatchError, LinealityError, PolyCone, generated)
from .certificates import (  # noqa: F401
    CertificateError,
    ChainCertificate,
    ChainStep,
    GridCell,
    GridCertificate,
    Stratum,
    Verdict,
    build_product_certificates,
    certificate_from_dict,
    certificate_to_dict,
    tsukioka_factors,
    verify_HE_hypotheses,
    verify_HEF_hypotheses,
    verify_chain,
)
from .scenario import (  # noqa: F401
    ClassificationResult,
    Scenario,
    TheoremVerdict,
    anticanonical,
    build_scenario,
    classify,
    classify_all,
    delta_certificate,
    ne_generators,
    nef_generators_claimed,
    not_fano_type_refutation,
    t_divisors,
    verify_theorem,
)
