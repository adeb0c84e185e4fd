"""Vector balancing by the Gram-Schmidt walk, with exact small-instance
enumeration, concentration instrumentation, and a smoothed-analysis simulator.

The public names load their module on first access (PEP 562), so importing
the package imports no submodule.
"""

from importlib import import_module

_EXPORTS = {
    "instances": ("Instance", "generate_instance", "load_instance", "save_instance"),
    "walk": ("WalkTrace", "run_walk"),
    "ortho": ("OrthoDecomposition", "decompose", "variance_proxy"),
    "enumeration": ("LeafDistribution", "enumerate_walk"),
    "inequalities": ("BoundInputs", "theorem1_bound"),
    "harness": ("RunStats", "ExperimentReport", "run_experiment", "build_report"),
    "smoothed": ("SmoothedConfig", "TiltedDistribution", "build_augmented",
                 "tilt_distribution"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
