"""One Hypothesis configuration: ``tier1`` (the default) draws the same
examples every run, with no deadline; ``long`` searches fresh ones,
many more (``pytest --hypothesis-profile long``)."""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True,
                          max_examples=50)
settings.register_profile("long", deadline=None, max_examples=2000)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("tier1")
