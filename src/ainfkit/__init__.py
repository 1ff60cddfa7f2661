"""Exact-arithmetic toolkit for filtered A-infinity algebras over truncated
Novikov rings, with a de Rham model on tori for the fiber-integration
identities and the Kunneth comparison map.

Everything is computed over exact rationals (or Gaussian rationals for torus
forms); all checks are zero-tolerance equalities.
"""

from ainfkit.scalars import NovikovElement, EnergyMonoid, monoid_sum
from ainfkit.signs import koszul_prefix_sign, gamma_ledger_check
from ainfkit.ainf import AInfAlgebra, AlgElement, eval_op, ainf_defect, check_ainf, check_unit, deform, mc_defect
from ainfkit.kunneth import SubalgebraEmbedding, check_subalgebra, check_commuting, box_product, check_kunneth_hypothesis
from ainfkit.floer import scalar_cohomology, hf_dimension, barcode, check_hf_kunneth
from ainfkit.isotopy import Pseudoisotopy, check_pseudoisotopy, extend_one_level, extend_to, check_commuting_isotopy

__version__ = "0.1.0"
