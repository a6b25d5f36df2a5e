"""The one error type for rejected caller input."""


class InputError(ValueError):
    """Input the caller supplied is malformed or names something that does
    not exist (a graph line, a word, a ring spec, a vertex or an edge id).

    The CLI maps it to exit code 2; any other ``ValueError`` escaping a
    command is an internal failure.
    """
