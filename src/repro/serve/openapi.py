"""OpenAPI description of the query API, validated by the shared interpreter.

The canonical machine-readable contract of :mod:`repro.serve.http` is the
checked-in ``schemas/openapi-serve.json``, generated from the component
schemas below by :func:`openapi_spec` (the test suite asserts the file is
in sync; regenerate with ``python -m repro.serve.openapi``).  The schemas
stay inside the JSON-Schema subset that :func:`repro.io.schema.validate`
interprets, so :func:`validate_response` checks a body against that same
document, resolving its ``$ref`` pointers against the spec: CI curls every
endpoint and validates the body with ``python -m repro.serve.openapi
check``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

from ..io.schema import closed_object, validate

#: Version tag of the API description (bump on incompatible change).
OPENAPI_VERSION_TAG = "1.0.0"

#: Repository-relative path of the checked-in OpenAPI document.
SPEC_PATH = "schemas/openapi-serve.json"


class OpenApiError(ValueError):
    """Raised when a response does not conform to the API contract."""


def _array(items: Mapping[str, Any]) -> dict:
    return {"type": "array", "items": dict(items)}


_REF = "#/components/schemas/"

_STRING = {"type": "string"}
_INTEGER = {"type": "integer"}
_NUMBER = {"type": "number"}

_PAGINATION_PROPS = {"offset": _INTEGER, "limit": _INTEGER, "total": _INTEGER}


def _component_schemas() -> dict[str, dict]:
    """Every named schema of the API contract."""
    return {
        "Error": closed_object({"error": _STRING, "status": _INTEGER}),
        "CampaignEntry": closed_object(
            {
                "name": _STRING, "digest": _STRING, "sessions": _INTEGER,
                "units": _INTEGER, "shards": _INTEGER,
                "manifest": {"type": ["object", "null"]},
                "trace": {"type": ["string", "null"]},
            }
        ),
        "CampaignList": closed_object(
            {
                "campaigns": _array({"$ref": _REF + "CampaignEntry"}),
                "count": _INTEGER,
                **_PAGINATION_PROPS,
            },
            ["campaigns", "count"],
        ),
        "ServiceShare": closed_object(
            {
                "service": _STRING,
                "session_share": _NUMBER,
                "traffic_share": _NUMBER,
            }
        ),
        "SharesDocument": closed_object(
            {
                "campaign": _STRING, "digest": _STRING, "sessions": _INTEGER,
                "total_volume_mb": _NUMBER,
                "services": _array({"$ref": _REF + "ServiceShare"}),
                **_PAGINATION_PROPS,
            },
            ["campaign", "digest", "sessions", "total_volume_mb", "services"],
        ),
        "PdfDocument": closed_object(
            {
                "campaign": _STRING, "digest": _STRING,
                "axis": {
                    "type": "string",
                    "enum": ["log10_volume_mb", "duration_s"],
                },
                "edges": _array(_NUMBER), "density": _array(_NUMBER),
                "samples": _INTEGER,
            }
        ),
        "ArrivalDecile": closed_object(
            {
                "label": _STRING, "peak_mu": _NUMBER, "peak_sigma": _NUMBER,
                "night_scale": _NUMBER, "night_shape": _NUMBER,
            }
        ),
        "ArrivalsDocument": closed_object(
            {
                "release_digest": _STRING,
                "deciles": _array({"$ref": _REF + "ArrivalDecile"}),
            }
        ),
        "FidelityCheck": closed_object(
            {
                "claim": _STRING, "statistic": _STRING, "value": _NUMBER,
                "lo": _NUMBER, "hi": _NUMBER, "passed": {"type": "boolean"},
                "skipped": {"type": "boolean"}, "provenance": _STRING,
            }
        ),
        "FidelitySummary": closed_object(
            {
                "checks": _INTEGER, "claims": _INTEGER, "failed": _INTEGER,
                "skipped": _INTEGER,
                "verdict": {
                    "type": "string",
                    "enum": ["OK", "FAILED", "SKIPPED"],
                },
            }
        ),
        "FidelityDocument": closed_object(
            {
                "campaign": _STRING, "digest": _STRING,
                "claims": _array(_STRING),
                "summary": {"$ref": _REF + "FidelitySummary"},
                "checks": _array({"$ref": _REF + "FidelityCheck"}),
            }
        ),
        "SubmitResult": closed_object(
            {
                "ingested": _INTEGER, "campaigns": _array(_STRING),
                "aggregate": _INTEGER, "manifest": _INTEGER,
            },
            ["ingested", "campaigns"],
        ),
    }


def _json_body(ref: str) -> dict:
    return {
        "content": {
            "application/json": {"schema": {"$ref": _REF + ref}}
        }
    }


def _error_responses(*codes: int) -> dict[str, dict]:
    descriptions = {
        400: "malformed request",
        401: "missing or invalid bearer token",
        403: "submissions disabled or server read-only",
        404: "unknown campaign or missing document",
        409: "digest mismatch",
    }
    return {
        str(code): {
            "description": descriptions[code],
            **_json_body("Error"),
        }
        for code in codes
    }


_NOT_MODIFIED = {
    "304": {"description": "entity tag still current (no body)"}
}

_CAMPAIGN_PARAM = {
    "name": "campaign",
    "in": "query",
    "required": False,
    "description": "campaign name (optional when exactly one is ingested)",
    "schema": {"type": "string"},
}

_PAGE_PARAMS = [
    {
        "name": "offset",
        "in": "query",
        "required": False,
        "schema": {"type": "integer", "minimum": 0},
    },
    {
        "name": "limit",
        "in": "query",
        "required": False,
        "schema": {"type": "integer", "minimum": 0},
    },
]


def openapi_spec() -> dict[str, Any]:
    """The full OpenAPI 3.1 document of the query API."""

    def get_op(
        summary: str,
        ref: str,
        *,
        campaign: bool = True,
        paged: bool = False,
        errors: tuple[int, ...] = (404,),
    ) -> dict:
        parameters: list[dict] = []
        if campaign:
            parameters.append(dict(_CAMPAIGN_PARAM))
        if paged:
            parameters.extend(dict(p) for p in _PAGE_PARAMS)
        error_codes = tuple(errors) + ((400,) if campaign or paged else ())
        return {
            "get": {
                "summary": summary,
                "parameters": parameters,
                "responses": {
                    "200": {
                        "description": summary,
                        **_json_body(ref),
                    },
                    **_NOT_MODIFIED,
                    **_error_responses(*sorted(set(error_codes))),
                },
            }
        }

    return {
        "openapi": "3.1.0",
        "info": {
            "title": "repro-traffic statistics service",
            "description": (
                "Query API over ingested campaign aggregates: per-service "
                "shares, volume/duration PDFs, decile arrival parameters "
                "and fidelity verdicts, served from precomputed documents "
                "with sketch-digest ETags."
            ),
            "version": OPENAPI_VERSION_TAG,
        },
        "paths": {
            "/v1/campaigns": get_op(
                "ingested campaigns",
                "CampaignList",
                campaign=False,
                paged=True,
                errors=(),
            ),
            "/v1/services/shares": get_op(
                "per-service session and traffic shares",
                "SharesDocument",
                paged=True,
            ),
            "/v1/pdf/volume": get_op(
                "campaign volume PDF (global log10 grid)", "PdfDocument"
            ),
            "/v1/pdf/duration": get_op(
                "campaign duration PDF (Section 3.2 bins)", "PdfDocument"
            ),
            "/v1/arrivals/deciles": get_op(
                "decile arrival parameters of the model release",
                "ArrivalsDocument",
                campaign=False,
            ),
            "/v1/fidelity": get_op(
                "aggregate-only fidelity verdicts", "FidelityDocument"
            ),
            "/v1/openapi.json": {
                "get": {
                    "summary": "this OpenAPI document",
                    "parameters": [],
                    "responses": {
                        "200": {
                            "description": "the API contract itself",
                            "content": {
                                "application/json": {
                                    "schema": {"type": "object"}
                                }
                            },
                        },
                        **_NOT_MODIFIED,
                    },
                }
            },
            "/metrics": {
                "get": {
                    "summary": "plain-text metrics exposition",
                    "parameters": [],
                    "responses": {
                        "200": {
                            "description": (
                                "one '# TYPE' header plus one sample "
                                "line per instrument"
                            ),
                            "content": {
                                "text/plain": {
                                    "schema": {"type": "string"}
                                }
                            },
                        }
                    },
                }
            },
            "/v1/submit": {
                "post": {
                    "summary": "token-authenticated JSONL ingest",
                    "security": [{"bearerToken": []}],
                    "requestBody": {
                        "required": True,
                        "content": {
                            "application/jsonl": {
                                "schema": {"type": "string"}
                            }
                        },
                    },
                    "responses": {
                        "200": {
                            "description": "submission applied atomically",
                            **_json_body("SubmitResult"),
                        },
                        **_error_responses(400, 401, 403, 409),
                    },
                }
            },
        },
        "components": {
            "schemas": _component_schemas(),
            "securitySchemes": {
                "bearerToken": {"type": "http", "scheme": "bearer"}
            },
        },
    }


def render_spec() -> str:
    """The checked-in spec file's exact text content."""
    return json.dumps(openapi_spec(), indent=2, sort_keys=True) + "\n"


def spec_etag() -> str:
    """Entity tag of the served ``/v1/openapi.json`` document."""
    return hashlib.sha256(render_spec().encode("utf-8")).hexdigest()[:32]


def validate_response(
    path: str,
    status: int,
    payload: Any,
    *,
    method: str = "get",
    spec: Mapping[str, Any] | None = None,
) -> None:
    """Validate one decoded response body against the API contract.

    ``path`` is the endpoint path (e.g. ``/v1/fidelity``), ``status`` the
    HTTP status the body came with.  Raises :class:`OpenApiError` on any
    contract breach; a 304 must have no payload (pass ``None``).
    """
    document = openapi_spec() if spec is None else spec
    try:
        operation = document["paths"][path][method.lower()]
    except KeyError as exc:
        raise OpenApiError(
            f"no {method.upper()} operation for {path}"
        ) from exc
    try:
        response = operation["responses"][str(status)]
    except KeyError as exc:
        raise OpenApiError(
            f"{method.upper()} {path} does not define status {status}"
        ) from exc
    content = response.get("content")
    if content is None:
        if payload is not None:
            raise OpenApiError(
                f"{method.upper()} {path} -> {status} must have no body"
            )
        return
    if "application/json" not in content:
        raise OpenApiError(
            f"{method.upper()} {path} -> {status} has no JSON body"
        )
    validate(
        payload,
        content["application/json"]["schema"],
        OpenApiError,
        root=document,
        where=f"{method.upper()} {path} -> {status}: $",
    )


def _main(argv: list[str] | None = None) -> int:
    """Regenerate the checked-in spec, or validate a saved response body.

    ``python -m repro.serve.openapi [check PATH STATUS FILE]`` (CI's
    serve-smoke job checks every endpoint) exits ``0`` if the body
    conforms or the spec was written, ``1`` if the body breaches the
    contract or is unreadable, and ``2`` on a usage error — the contract
    of ``python -m repro.obs.schema``.
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.openapi",
        description=(
            "Validate a saved response body against the API contract, or "
            "(with no command) regenerate the checked-in OpenAPI document."
        ),
    )
    check = parser.add_subparsers(dest="command").add_parser(
        "check", help="validate a saved JSON response body"
    )
    check.add_argument("path", help="endpoint path, e.g. /v1/fidelity")
    check.add_argument("status", type=int, help="HTTP status of the body")
    check.add_argument("body_file", help="file holding the JSON body")
    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pin both.
        return 2 if exc.code else 0
    if options.command == "check":
        try:
            text = Path(options.body_file).read_text(encoding="utf-8")
            validate_response(options.path, options.status, json.loads(text))
        except (OpenApiError, OSError, json.JSONDecodeError) as exc:
            # repro-lint: disable-next-line=S305 -- module CLI output, no run telemetry exists here
            print(f"{options.body_file}: nonconforming: {exc}", file=sys.stderr)
            return 1
        # repro-lint: disable-next-line=S305 -- module CLI output, no run telemetry exists here
        print(
            f"{options.body_file}: conforms to {options.path} -> "
            f"{options.status}"
        )
        return 0
    target = Path(SPEC_PATH)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_spec())
    # repro-lint: disable-next-line=S305 -- module CLI output, no run telemetry exists here
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(_main())
