"""Name -> engine factory registry.

``register(name, factory)`` adds an engine; ``create(name, config=...)``
instantiates one; ``names()`` lists what is registered (insertion
order: the default ``nn`` first, then the baselines, then
``ensemble``). Unknown names raise
:class:`~repro.common.errors.EngineError` whose message lists the
registered names -- the one shared error path for ``--engine``
everywhere (CLI, corpus, service).

Composite syntax: ``ensemble`` fuses every non-ensemble engine;
``ensemble:nn+pset`` fuses an explicit member list.
"""

from repro.common.errors import EngineError

_REGISTRY = {}
_LOADED = False


def register(name, factory):
    """Register ``factory(config=None) -> Predictor`` under ``name``."""
    _REGISTRY[name] = factory


def _ensure_loaded():
    # Engine modules import repro.engines.base, and with it this
    # package, so they load lazily here: a module-scope import would be
    # circular.
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    from repro.baselines.aviso import AvisoEngine
    from repro.baselines.pbi import PBIEngine
    from repro.baselines.pset import PSetEngine
    from repro.engines.ensemble import EnsembleEngine
    from repro.engines.nn_engine import NNEngine

    register("nn", NNEngine)
    register("aviso", AvisoEngine)
    register("pbi", PBIEngine)
    register("pset", PSetEngine)

    def _make_ensemble(config=None, members=None):
        member_names = members or [n for n in names()
                                   if n != "ensemble"]
        return EnsembleEngine(
            [create(n, config=config) for n in member_names],
            config=config)

    register("ensemble", _make_ensemble)


def names():
    """Registered engine names, registration order."""
    _ensure_loaded()
    return tuple(_REGISTRY)


def create(name, config=None):
    """Instantiate the engine registered under ``name``.

    ``ensemble:a+b`` builds a composite over explicitly named member
    engines; bare ``ensemble`` takes every non-ensemble engine.
    """
    _ensure_loaded()
    base, sep, spec = name.partition(":")
    if spec and base != "ensemble":
        raise EngineError(
            f"unknown engine {name!r} (only 'ensemble:' takes a member "
            f"list); registered engines: {', '.join(names())}",
            engine=name, known=names())
    if base not in _REGISTRY:
        raise EngineError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(names())}", engine=name, known=names())
    if base == "ensemble":
        members = [m for m in spec.split("+") if m] if spec else None
        if sep and not members:
            raise EngineError(
                f"engine {name!r} names no members; registered engines: "
                f"{', '.join(names())}", engine=name, known=names())
        for member in members or ():
            if member == "ensemble" or member not in _REGISTRY:
                raise EngineError(
                    f"unknown ensemble member {member!r} in {name!r}; "
                    f"registered engines: {', '.join(names())}",
                    engine=member, known=names())
        return _REGISTRY["ensemble"](config=config, members=members)
    return _REGISTRY[base](config=config)
