"""Simulator and cryptanalysis toolkit for a Chebyshev chaotic-map
smart-card authentication and key-agreement scheme.

The protocol side runs the scheme's four phases deterministically under
seeded randomness and a logical clock; the adversary side reproduces its
three weaknesses (offline password guessing, wasted wrong-password logins,
and permanent card corruption through unverified password change).
"""

from .chaotic import DEFAULT_PRIME, FieldElement, backend_name, bits_to_field, cheb_eval
from .primitives import DEFAULT_WIDTH, LogicalClock, OpCounts, RandomSource, Timestamp, WidthMismatch
from .protocol import (
    DEFAULT_DELTA_T,
    EmptyCredential,
    LoginRequest,
    LoginResponse,
    Params,
    Reject,
    RejectReason,
    ServerState,
    SmartCard,
    UserLoginContext,
    change_password,
    registration,
    run_login_session,
    server_handle_login,
    server_setup,
    user_handle_response,
    user_login_start,
)
from .adversary import (
    Dictionary,
    DosReport,
    ExperimentInvalid,
    GuessReport,
    dos_experiment,
    guess_predicate,
    offline_guess,
    scan_target,
    wrong_login_experiment,
)

__version__ = "1.0.0"
