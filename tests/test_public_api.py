"""The public API surface: everything in __all__ resolves and works."""

import repro


class TestPublicApi:
    def test_all_names_resolve(self):
        import repro.core

        for module in (repro, repro.core):
            for name in module.__all__:
                assert hasattr(module, name), (
                    f"{module.__name__}.{name} missing"
                )

    def test_scalar_oracle_is_not_exported(self):
        # The pair-at-a-time transcription is the test oracle only; it
        # stays importable from its own modules.
        import repro.core
        from repro.core.candidates import find_candidate_tuples
        from repro.core.donor_scan import ScalarEngine
        from repro.core.verification import first_fault, is_faultless

        oracle = {
            "ScalarEngine": ScalarEngine,
            "find_candidate_tuples": find_candidate_tuples,
            "first_fault": first_fault,
            "is_faultless": is_faultless,
        }
        for name, obj in oracle.items():
            assert callable(obj)
            assert name not in repro.core.__all__
            assert not hasattr(repro.core, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_docstring_flow(self):
        # The flow advertised in the package docstring, at tiny scale.
        clean = repro.load_dataset("bridges", seed=0)
        rfds = repro.discover_rfds(
            clean,
            repro.DiscoveryConfig(threshold_limit=3, max_per_rhs=10),
        ).all_rfds
        dirty = repro.inject_missing(clean, rate=0.01, seed=7)
        result = repro.Renuver(rfds).impute(dirty.relation)
        scores = repro.score_imputation(
            result.relation, dirty, repro.dataset_validator("bridges")
        )
        assert 0.0 <= scores.f1 <= 1.0

    def test_exceptions_derive_from_repro_error(self):
        from repro import exceptions

        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj is not exceptions.ReproError
                and obj.__module__ == "repro.exceptions"
            ):
                assert issubclass(obj, exceptions.ReproError), name
