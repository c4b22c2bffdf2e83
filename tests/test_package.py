"""The package's public names: each is listed once, in its module's
``__all__``, and ``cachecode`` re-exports exactly those names."""

import importlib

import cachecode

EXPORTS = {
    "delivery": [
        "Codeword", "SchemeConstants", "TransmissionSchedule",
        "closed_form_pairs", "generate_schedule", "initial_codeword_terms",
        "mn_rate", "mn_subpacketization", "rate", "scheme_constants",
    ],
    "errors": [
        "CacheCodeError", "InstanceError", "RegimeError", "ScheduleError",
        "SimulationMismatch", "UnsupportedMemoryPoint",
    ],
    "model": [
        "CacheLayout", "DemandVector", "SubpacketId", "SystemParams",
        "build_cache_layout", "build_demand_list", "identity_demand",
        "random_demand", "validate_demand", "wrap",
    ],
    "multiaccess": [
        "CcdnParams", "OptimalityRow", "RateBoundCurve",
        "ccdn_cache_contents", "ccdn_rate_at_supported_points",
        "ccdn_rate_bound_curve", "ccdn_schedule", "ccdn_upper_bound",
        "ccdn_user_view", "effective_cache_run", "f_subfiles",
        "optimality_table",
    ],
    "verify": [
        "FileStore", "VerificationReport", "Violation",
        "min_pair_transmissions", "random_file_store", "simulate_end_to_end",
        "verify_instantaneous_decodability",
    ],
}


def test_the_package_exports_the_pinned_names():
    names = sorted(n for listed in EXPORTS.values() for n in listed)
    assert len(names) == 45
    assert cachecode.__all__ == names + ["__version__"]
    assert cachecode.__version__ == "0.1.0"


def test_each_export_is_its_modules_object():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"cachecode.{module_name}")
        assert sorted(module.__all__) == names
        for name in names:
            assert getattr(cachecode, name) is getattr(module, name), name

