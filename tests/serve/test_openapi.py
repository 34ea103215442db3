"""OpenAPI spec: shape, live-response conformance and the module CLI.

``schemas/openapi-serve.json`` is generated from
:func:`repro.serve.openapi.openapi_spec` and committed; its sync test
lives with the other checked-in schemas in ``tests/io/test_schema.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.serve import ServeApp, openapi_spec, validate_response
from repro.serve.openapi import SPEC_PATH, _main as openapi_main, render_spec

from .conftest import as_json, wsgi_get, wsgi_post

#: Submit token of the populated app fixture.
TOKEN = "spec-token"


@pytest.fixture()
def app(store, aggregate, bank, tmp_path):
    """A served store holding one campaign and one model release."""
    from repro.core.arrivals import ArrivalModel
    from repro.io.params import save_release

    store.ingest_aggregate("camp", aggregate.to_dict())
    store.ingest_manifest("camp", {"run_id": "r1"})
    release = tmp_path / "release.json"
    save_release(
        release,
        bank,
        {"d1": ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)},
    )
    store.ingest_release(release)
    return ServeApp(store, token=TOKEN)


class TestSpecFile:
    def test_spec_shape(self):
        spec = openapi_spec()
        assert spec["openapi"].startswith("3.1")
        for path in (
            "/v1/campaigns",
            "/v1/services/shares",
            "/v1/pdf/volume",
            "/v1/pdf/duration",
            "/v1/arrivals/deciles",
            "/v1/fidelity",
            "/v1/submit",
        ):
            assert path in spec["paths"], path

    def test_every_get_documents_304(self):
        """Every ETagged GET documents 304; /metrics is live, un-ETagged."""
        spec = openapi_spec()
        for path, item in spec["paths"].items():
            if "get" in item and path != "/metrics":
                assert "304" in item["get"]["responses"], path

    def test_spec_covers_served_routes(self, app):
        """Every documented operation answers; every served route is documented."""
        spec = openapi_spec()
        for path, item in spec["paths"].items():
            for method in item:
                if method == "post":
                    status, _, _ = wsgi_post(app, path, b"")
                else:
                    status, _, _ = wsgi_get(app, path, method=method.upper())
                assert status != 404, (method, path)
        served = set(app._routes) | {"/v1/submit", "/metrics"}
        assert sorted(served - set(spec["paths"])) == []


class TestLiveConformance:
    @pytest.mark.parametrize(
        "path",
        [
            "/v1/campaigns",
            "/v1/services/shares",
            "/v1/pdf/volume",
            "/v1/pdf/duration",
            "/v1/arrivals/deciles",
            "/v1/fidelity",
        ],
    )
    def test_get_responses_conform(self, app, path):
        status, _, body = wsgi_get(app, path)
        assert status == 200
        validate_response(path, 200, as_json(body))

    def test_paginated_shares_conform(self, app):
        status, _, body = wsgi_get(
            app, "/v1/services/shares", query="offset=0&limit=1"
        )
        assert status == 200
        validate_response("/v1/services/shares", 200, as_json(body))

    def test_not_modified_conforms(self, app):
        _, headers, _ = wsgi_get(app, "/v1/fidelity")
        status, _, body = wsgi_get(
            app, "/v1/fidelity", headers={"If-None-Match": headers["ETag"]}
        )
        assert status == 304
        validate_response("/v1/fidelity", 304, None)

    def test_submit_result_conforms(self, app, aggregate):
        line = json.dumps(
            {
                "type": "aggregate",
                "campaign": "fresh",
                "digest": aggregate.digest(),
                "payload": aggregate.to_dict(),
            }
        ).encode("utf-8")
        status, _, body = wsgi_post(
            app,
            "/v1/submit",
            line,
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        assert status == 200
        validate_response("/v1/submit", 200, as_json(body), method="post")

    def test_error_responses_conform(self, app):
        status, _, body = wsgi_get(
            app, "/v1/fidelity", query="campaign=ghost"
        )
        assert status == 404
        validate_response("/v1/fidelity", 404, as_json(body))

    def test_nonconforming_payload_rejected(self):
        with pytest.raises(ValueError):
            validate_response(
                "/v1/pdf/volume", 200, {"campaign": "c"}
            )


class TestModuleCli:
    """``python -m repro.serve.openapi`` honours the 0/1/2 exit contract."""

    def _body(self, tmp_path: Path, payload) -> str:
        path = tmp_path / "body.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_conforming_body_exits_zero(self, tmp_path, capsys):
        body = self._body(tmp_path, {"error": "gone", "status": 404})
        assert openapi_main(["check", "/v1/fidelity", "404", body]) == 0
        assert "conforms" in capsys.readouterr().out

    def test_breach_prints_one_line_and_exits_one(self, tmp_path, capsys):
        body = self._body(tmp_path, {"campaign": "c"})
        assert openapi_main(["check", "/v1/pdf/volume", "200", body]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "missing required field" in err

    def test_usage_errors_exit_two(self, capsys):
        assert openapi_main(["check", "/v1/fidelity"]) == 2
        assert openapi_main(["check", "/v1/fidelity", "ok", "body.json"]) == 2
        assert openapi_main(["bogus"]) == 2
        capsys.readouterr()  # drain argparse noise

    def test_regenerate_writes_the_checked_in_document(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert openapi_main([]) == 0
        assert (tmp_path / SPEC_PATH).read_text() == render_spec()
        capsys.readouterr()
