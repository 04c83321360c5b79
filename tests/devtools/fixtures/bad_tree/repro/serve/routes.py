"""RL005 fixture: a route table naming a handler the module never defines."""

ROUTES = (
    Route("GET", "/healthz", "_handle_healthz"),
    Route("GET", "/forgotten", "_handle_forgotten"),  # RL005: no such handler
)


def _handle_healthz(service, request):
    return 200, {"status": "ok"}
