"""The JSON artifact format and its faults.

Every document a stage hands to the next (scenes, probe labels, the
affordance model, manifests, inference logs, scene-model exports and the
report) is a JSON object with a "version" key, written with one-space
indent and sorted keys and ending in a newline, so repeated runs are
byte-identical. `write_doc` is its one writer and `read_doc` its one
reader; every fault of such a file is an ArtifactError naming the file.
"""

from __future__ import annotations

import json
import os

from .errors import ArtifactError


def write_doc(doc: dict, path) -> None:
    """Write `doc` to `path` in the artifact layout."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def integer(value, what: str) -> int:
    """`value`, a field of a document that must be a JSON integer; a
    ValueError naming it as `what` otherwise, so that `read_doc` names the
    file. A number with a fraction, a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def read_doc(path, what: str, version: str, parse):
    """`parse(doc)` of the `version` document at `path`.

    `what` names the file in each fault's ArtifactError: "no <what>" when
    there is no such file, "<what> is not valid JSON: ...", "<what> is not
    a JSON object", "<what> is <found>, not <version>", and "<what> is
    malformed: no key 'k'" or "<what> is malformed: <reason>" when `parse`
    raises a KeyError, or an IndexError, TypeError or ValueError with that
    reason. Any other error of `parse`, such as a ValidationError of a
    value out of its domain, passes through."""
    if not os.path.isfile(path):
        raise ArtifactError(f"no {what}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:  # bad JSON, or bytes that are not UTF-8
            raise ArtifactError(f"{what} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ArtifactError(f"{what} is not a JSON object")
    if doc.get("version") != version:
        raise ArtifactError(f"{what} is {doc.get('version')}, not {version}")
    try:
        return parse(doc)
    except KeyError as e:
        raise ArtifactError(f"{what} is malformed: no key {e}") from e
    except (IndexError, TypeError, ValueError) as e:
        raise ArtifactError(f"{what} is malformed: {e}") from e
