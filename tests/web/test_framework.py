"""Tests for the web framework: HTTP objects, routing, templates, sessions,
auth and the application classes."""

import pytest

from repro.web import (
    Application,
    AuthenticationError,
    HttpError,
    Request,
    Response,
    Route,
    Router,
    SessionStore,
    Template,
    TestClient,
    render_template,
)
from repro.web.auth import Authenticator, hash_password
from repro.web.http import build_url
from repro.web.templates import TemplateError


# -- http ---------------------------------------------------------------------------


def test_request_parses_query_string_and_params():
    request = Request("get", "/papers?page=2&sort=title", params={"page": 3})
    assert request.method == "GET" and request.is_get
    assert request.path == "/papers"
    assert request.param("sort") == "title"
    assert request.param("page") == 3  # explicit params win
    assert request.param("missing", "default") == "default"


def test_request_form_data_and_repr():
    request = Request("POST", "/submit", data={"title": "x"})
    assert request.is_post and request.form("title") == "x"
    assert "POST /submit" in repr(request)


def test_response_helpers():
    assert Response.redirect("/next").status == 302
    assert Response.not_found().status == 404
    assert Response.forbidden().status == 403
    assert Response("ok").ok
    assert "Content-Type" in Response("x").headers
    assert build_url("/a", q=1) == "/a?q=1"
    assert build_url("/a") == "/a"


# -- routing -------------------------------------------------------------------------


def test_router_matches_static_and_parameterised_paths():
    router = Router()
    router.add("/papers", lambda request: None, name="papers")
    router.add("/paper/<pk>", lambda request: None, name="paper")
    request = Request("GET", "/paper/17")
    route = router.resolve(request)
    assert route.name == "paper"
    assert request.path_params == {"pk": "17"}
    assert router.resolve(Request("GET", "/papers")).name == "papers"
    assert router.resolve(Request("GET", "/nope")) is None
    assert router.url_for("paper", pk=3) == "/paper/3"
    with pytest.raises(LookupError):
        router.url_for("unknown")


def test_route_method_filtering():
    route = Route("/only-post", lambda request: None, methods=("POST",))
    assert route.match("/only-post", "GET") is None
    assert route.match("/only-post", "POST") == {}


# -- templates ------------------------------------------------------------------------


def test_template_interpolation_and_escaping():
    rendered = render_template("Hello {{ name }}!", {"name": "<world>"})
    assert rendered == "Hello &lt;world&gt;!"
    assert render_template("{{ missing }}", {}) == ""


def test_template_dotted_lookup_and_loops():
    source = "{% for item in items %}[{{ item.label }}]{% endfor %}"
    rendered = render_template(source, {"items": [{"label": "a"}, {"label": "b"}]})
    assert rendered == "[a][b]"


def test_template_if_else():
    source = "{% if flag %}yes{% else %}no{% endif %}"
    assert render_template(source, {"flag": True}) == "yes"
    assert render_template(source, {"flag": False}) == "no"
    assert render_template("{% if flag %}x{% endif %}", {}) == ""


def test_template_errors():
    with pytest.raises(TemplateError):
        Template("{% for x in items %}unclosed")
    with pytest.raises(TemplateError):
        Template("{% bogus %}")
    with pytest.raises(TemplateError):
        Template("{% for broken %}{% endfor %}")


@pytest.mark.parametrize("source", ["{% %}", "{%%}", "a{%\n%}b"])
def test_an_empty_directive_is_a_template_error(source):
    with pytest.raises(TemplateError, match="empty directive"):
        Template(source)


def test_a_for_expression_spans_lines_as_interpolations_do():
    # The whole remainder is the expression, as in {{ }} and {% if %}: a
    # name with a newline in it names nothing, so the loop renders nothing.
    context = {"items": ["a"]}
    source = "{% for x in items\n.title %}{{ x }}{% endfor %}"
    assert render_template(source, context) == ""
    assert render_template("{{ items\n.title }}", context) == ""
    assert render_template("{% for x in\n items %}{{ x }}{% endfor %}", context) == "a"


# -- sessions and auth -------------------------------------------------------------------


def test_session_store_roundtrip():
    store = SessionStore()
    session = store.create()
    session["user_id"] = 7
    assert store.get(session.session_id)["user_id"] == 7
    assert store.get(None) is None
    assert store.get_or_create(session.session_id) is session
    assert store.get_or_create("unknown").session_id != session.session_id
    store.drop(session.session_id)
    assert store.get(session.session_id) is None


def test_authenticator_login_logout():
    auth = Authenticator(user_loader=lambda user_id: {"id": user_id})
    auth.register("alice", "wonderland", user_id=7)
    store = SessionStore()
    session = store.create()
    user = auth.login(session, "alice", "wonderland")
    assert user == {"id": 7}
    assert auth.user_for(session) == {"id": 7}
    auth.logout(session)
    assert auth.user_for(session) is None
    with pytest.raises(AuthenticationError):
        auth.login(session, "alice", "wrong")
    with pytest.raises(AuthenticationError):
        auth.login(session, "nobody", "pw")
    assert auth.has_account("alice")
    assert hash_password("a") != hash_password("b")


# -- application dispatch ------------------------------------------------------------------


def make_app():
    app = Application("test")
    app.add_template("hello", "Hello {{ name }}")

    @app.route("/hello", methods=("GET",), template="hello")
    def hello(request):
        return {"name": request.param("name", "world")}

    @app.route("/pair", methods=("GET",))
    def pair(request):
        return ("Value: {{ value }}", {"value": 42})

    @app.route("/raw", methods=("GET",))
    def raw(request):
        return Response("raw body", status=201)

    @app.route("/boom", methods=("GET",))
    def boom(request):
        raise HttpError(418, "teapot")

    @app.route("/whoami", methods=("GET",))
    def whoami(request):
        return Response(str(request.user))

    return app


def test_application_renders_templates_and_contexts():
    client = TestClient(make_app())
    assert client.get("/hello").body == "Hello world"
    assert client.get("/hello", name="dev").body == "Hello dev"
    assert client.get("/pair").body == "Value: 42"
    response = client.get("/raw")
    assert response.status == 201 and response.body == "raw body"
    assert client.get("/boom").status == 418
    assert client.get("/missing").status == 404


def test_sessions_persist_across_client_requests():
    app = make_app()
    app.auth.set_user_loader(lambda user_id: f"user-{user_id}")
    client = TestClient(app)
    assert client.get("/whoami").body == "None"
    client.force_login(9, "niner")
    assert client.get("/whoami").body == "user-9"
    client.logout()
    assert client.get("/whoami").body == "None"
