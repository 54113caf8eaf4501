"""Shared SpGEMM dispatch for the application modules.

Every app routes its products through :func:`multiply`, so each accepts
an ``engine=`` parameter: pass a :class:`repro.engine.SpGEMMEngine` to
plan-cache repeated-pattern products, ``True`` to build a fresh engine
over the chosen algorithm, or ``None``/``False`` for plain one-shot
calls.  Iterative drivers (:func:`repro.apps.graph.markov_cluster`)
default to ``engine=True``; single-product helpers default to off.
"""

from __future__ import annotations

from repro.types import Precision


def resolve_engine(engine, algorithm: str):
    """Normalize an apps-level ``engine=`` argument.

    ``True`` builds a fresh :class:`~repro.engine.SpGEMMEngine` fronting
    ``algorithm`` (through :func:`~repro.options.runner_for`); an engine
    instance passes through (callers share one cache across calls that
    way); ``None``/``False`` disable caching.
    """
    if engine is True:
        from repro.options import SpGEMMOptions, runner_for

        return runner_for(SpGEMMOptions(algorithm=algorithm, engine=True))
    return engine or None


def multiply(A, B, *, engine=None, algorithm: str = "proposal",
             precision: Precision | str = Precision.DOUBLE,
             matrix_name: str = ""):
    """One SpGEMM through the engine when given, else a one-shot call."""
    from repro.options import multiply as _multiply

    if engine is not None:
        return engine.multiply(A, B, precision=precision,
                               matrix_name=matrix_name)
    return _multiply(A, B, algorithm=algorithm, precision=precision,
                     matrix_name=matrix_name)
