"""The text of --help and of a usage error, for steadyparts.cli.

The package compiles this module only when a command line asks for help
or does not parse, so a command that runs compiles none of it.  It reads
the option tables it is given and imports nothing from steadyparts.cli,
which `python -m steadyparts.cli` would then compile and run twice.

An option is (flag, dest, parse, default, help), as steadyparts.cli
describes; a default of None marks a required option.
"""


def prog(command: str | None) -> str:
    return "steadyparts" if command is None else f"steadyparts {command}"


def _shown(options: tuple):
    """(flag with its metavar, help, default) of each option --help shows."""
    for flag, _, parse, default, doc in options:
        if doc is not None:
            yield (flag if parse is None else f"{flag} {flag.lstrip('-').upper()}"), doc, default


def line(command: str | None, options: tuple) -> str:
    """argparse's usage line for `command`, or for the program when None."""
    words = ["usage:", prog(command), "[-h]"]
    words += [arg if default is None else f"[{arg}]" for arg, _, default in _shown(options)]
    if command is None:
        words.append("COMMAND ...")
    return " ".join(words)


def help_text(command: str | None, options: tuple, commands: dict) -> str:
    """The --help of `command`, or of the program when None; `commands` maps
    each command to (a function that returns its run function, options)."""
    rows = [("-h, --help", "show this help message and exit")]
    for arg, doc, default in _shown(options):
        text = doc() if callable(doc) else doc
        if default not in (None, False):
            text += f" (default: {default})"
        rows.append((arg, text))
    if command is None:
        about = "Exact bipartite partition counts and their uniform asymptotics."
        listed = [(name, find().__doc__) for name, (find, _) in commands.items()]
    else:
        about, listed = commands[command][0]().__doc__, []
    width = max(len(left) for left, _ in rows + listed) + 2
    lines = [line(command, options), "", about, "", "options:"]
    lines += [f"  {left:<{width}}{right}".rstrip() for left, right in rows]
    if listed:
        lines += ["", "commands:"] + [f"  {name:<{width}}{doc}" for name, doc in listed]
    return "\n".join(lines)
