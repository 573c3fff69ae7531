from hypothesis import settings

# Property tests draw the same examples on every run and have no time limit,
# so a slow or busy machine cannot turn them into flaky failures.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
