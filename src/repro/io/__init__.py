"""Persistence and presentation helpers."""

from .cache import ArtifactCache, content_key, load_table, save_table
from .params import load_release, save_release
from .tables import format_table, print_table
from .traces import read_trace, trace_to_string, write_trace

__all__ = [
    "ArtifactCache",
    "content_key",
    "format_table",
    "load_release",
    "load_table",
    "print_table",
    "read_trace",
    "save_release",
    "save_table",
    "trace_to_string",
    "write_trace",
]
