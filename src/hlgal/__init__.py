"""Hall-Littlewood coefficient polynomials, characters and tableaux via
positively folded one-skeleton galleries in classical apartments."""

__version__ = "0.1.0"
