"""Replacing output files whole: a command or a save that fails leaves
every target as it was."""
from __future__ import annotations

import errno
import os
from contextlib import suppress
from pathlib import Path
from typing import Callable


def replace_files(writers: dict[Path, Callable[[str], None]]) -> None:
    """Write every target, or leave each as it was.

    Each writer writes its target's text to the path it is given, a
    temporary name beside the target. The targets are replaced only once
    every file is written, and none if a target is a directory. On any
    failure the temporary files are removed, and an error in writing one
    names its target.
    """
    for target in writers:
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    temps: list[Path] = []
    try:
        for target, write in writers.items():
            temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            temps.append(temp)
            try:
                write(str(temp))
            except OSError as exc:
                if exc.filename == str(temp):
                    exc.filename = str(target)
                raise
        for temp, target in zip(temps, writers):
            os.replace(temp, target)
    except BaseException:
        for temp in temps:
            with suppress(OSError):
                temp.unlink()
        raise
