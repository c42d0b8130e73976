from hypothesis import settings

# Property tests draw the same examples on every run and write no example
# database into the checkout; local ``@settings`` keep their ``max_examples``.
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")
