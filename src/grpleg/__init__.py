"""Swing-leg control transfer: a three-phase swing-leg controller on a planar
double-pendulum leg, and the modular generator/responsibility-predictor (GRP)
model that learns it online from controller demonstrations."""

__version__ = "0.1.0"


class NonFiniteError(RuntimeError):
    """A numerical update went non-finite: a diverging learn step or plant
    integration step. Raised before the bad values replace the old state.
    A diverging learn step sets `models`: the places in its stack, from 1,
    of the models whose weights went non-finite."""

    models: tuple[int, ...] = ()
