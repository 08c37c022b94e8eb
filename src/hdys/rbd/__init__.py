from .dynamics import (
    DivergedRollout,
    DynamicsError,
    ExternalForce,
    GeneralizedState,
    forward_dynamics,
    mass_matrix,
    rnea,
    step,
    total_energy,
)
from .muscle import InfeasibleActivation, MuscleError, MuscleSet, muscle_to_torque, solve_activations, synth_emg
from .standard import T1_EMG_MUSCLES, T2_BIAS_POSTURE, build_t1, build_t2, t1_muscles, t2_muscles
from .tree import KinematicTree, Link, TreeError
