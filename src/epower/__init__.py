"""Entangling power of two-qubit gates in canonical form and of
controlled-phase unitaries of any dimension, with closed forms validated
against a brute-force optimization oracle."""

from .canonical import *
from .epower2q import *
from .oracle import *
from .qmath import *
from .results import *
from .schmidt2 import *

__version__ = "0.1.0"
