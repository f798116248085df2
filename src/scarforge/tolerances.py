"""Every numerical tolerance, pruning cut and dimension guard, one name each.

Values are absolute unless the comment says otherwise.
"""

# Gates and states
UNIT_MODULUS_TOL = 1e-12      # | |phase| - 1 | of gate phases and phased basis states
ORDER_PHASE_TOL = 1e-10       # a cycle's phase product counts as a root of unity
WINDOW_COMMUTE_TOL = 1e-12    # max |[U_1, U_3]| of two same-layer stride2 windows

# Matrix log of a gate
RECONSTRUCTION_TOL = 1e-9     # max |exp(-i h) - U| of the principal log
DEPENDENCE_RTOL = 1e-9        # relative cut of the closing-relation least squares
CUT_GUARD = 1e-12             # angles this far above pi still wrap to +pi

# Local commutation rules
RULE_PHASE_TOL = 1e-10        # phase difference of the two type-I orderings
TYPE2_TOL = 1e-9              # type-II residual norm below which a rule holds

# Chain operators
ASSEMBLY_PRUNE = 1e-13        # window entries at or below this are floating noise; an assembled
                              # H whose imaginary parts all are is propagated as real, and layers
                              # whose Hermitian parts' imaginary parts all are give a real series
HERMITICITY_TOL = 1e-10       # max |A - A^dagger| after assembly
SECTOR_COMMUTE_TOL = 1e-9     # max |[H, P]| for a sector operator P
MOMENTUM_COMMUTE_TOL = 1e-13  # max |[H, S2]| for which a propagator solves momentum blocks; the
                              # dropped couplings grow by at most this times t in the amplitudes
ANTIUNITARY_TOL = 1e-13       # max |P H P - H*| for which Theta = K P is a symmetry and a sector with
                              # real characters is solved in its real basis; also the max |Im| of
                              # that rotated block, above which the sector stays complex
SPARSE_PRUNE = 1e-13          # series entries below this fraction of the largest are dropped

# Spectra and dynamics
DEGENERACY_TOL = 1e-12        # closer levels merge before the gap-ratio statistic, and form one
                              # degenerate group of a momentum block in `analyze_spectrum`
REFERENCE_WEIGHT_TOL = 1e-10  # a degenerate group's reference singular values at or below this are no weight
TOWER_MERGE_TOL = 1e-8        # flagged energies closer than this form one tower
COUPLING_TOL = 1e-8           # off-diagonal column norm of a coupled probe state
NORM_DRIFT_ABORT = 1e-6       # norm drift that aborts a propagation
CHEBYSHEV_TAIL_TOL = 1e-15    # bound on the dropped Chebyshev tail of one propagation window
DENSE_GUARD = 6000            # largest dimension given to a dense eigensolver
