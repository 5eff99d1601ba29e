"""Package exception types."""


class ConfigError(ValueError):
    """Invalid user input: parameter values, config files, CLI arguments."""


class ConvergenceError(RuntimeError):
    """A solver gave no trustworthy answer: a root, an eigenpair or a stable mode."""
