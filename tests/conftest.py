from hypothesis import settings

# ``pytest --hypothesis-profile=ci``: a failing property prints the blob that
# reproduces it with ``@reproduce_failure``, so a failure seen only in CI can
# be replayed locally
settings.register_profile("ci", print_blob=True)
