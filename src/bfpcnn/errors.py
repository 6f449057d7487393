"""The two refusals the command line tells apart; misuse of the API raises
``ValueError``."""


class ConfigError(Exception):
    """A run configuration file or flag value cannot be used (exit 1)."""


class DataError(Exception):
    """A dataset, image or checkpoint cannot be used as given (exit 2)."""
