"""Exact arithmetic and finite-radius geometry for coset graphs.

The package builds Cayley balls of finitely generated groups with exact
normal-form arithmetic, projects them onto coset graphs of a distinguished
subgroup, and extracts finite-radius evidence: Hausdorff coset distances,
end counts, path-lifting constants, homotopy-ladder certificates, and
escape routes.  Every estimate comes with a stabilization or trust window
so a truncated computation is reported as such instead of being guessed.
The lifting constants F, M and L need no window: they are exact, read off
the transfer lattices.

Importing the package loads none of its modules: each public name is
imported from its module when it is first read, so a CLI run compiles only
the modules its subcommand uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "cayley": (
        "DEFAULT_VERTEX_BUDGET",
        "Ball",
        "PathInBall",
        "StarResult",
        "build_ball",
        "cached_ball",
        "load_ball",
        "save_ball",
        "star",
    ),
    "cosetgraph": (
        "DEFAULT_TRUST_MARGIN",
        "CosetPatch",
        "DegreeProfile",
        "LambdaPath",
        "build_coset_patch",
        "degree_profile",
        "project_path",
    ),
    "dot": ("export_dot",),
    "ends": (
        "EndsReport",
        "default_schedule",
        "ends_report",
        "escape_route",
        "stable_hausdorff_bound",
        "verify_escape_route",
    ),
    "errors": (
        "BallOverflowError",
        "ConfigError",
        "ConstantViolationError",
        "CosetGeomError",
        "EmptyCosetInBallError",
        "EscapeBlockedError",
        "InsufficientRadiusError",
        "NoRouteWithinBallError",
        "NotCommensuratedError",
        "NotStabilizedError",
        "ScheduleExceedsBallError",
    ),
    "groups": (
        "GroupSpec",
        "ascending_hnn",
        "baumslag_solitar",
        "evaluate_word",
        "free_abelian_group",
        "free_group",
        "group_for",
        "inverse_word",
        "parse_group_spec",
        "parse_word",
        "render_word",
    ),
    "homotopy": (
        "Ladder",
        "LadderReport",
        "LadderViolation",
        "RaySystem",
        "build_ladder",
        "build_ray_system",
        "verify_ladder",
    ),
    "lifting": (
        "LiftConstants",
        "LiftResult",
        "approximate_lift",
        "compute_f",
        "compute_m",
        "lift_constants",
    ),
    "metrics": (
        "CommensurationReport",
        "HausdorffProfile",
        "RadiusValue",
        "commensuration_verdict",
        "default_radii",
        "default_test_elements",
        "hausdorff_profile",
    ),
    "subgroups": (
        "coset_key",
        "is_member",
        "k_letters",
        "q_letters",
        "transfer_basis",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
