"""The server process of the serving workloads.

Runs ``HttpRenderFrontEnd`` -> ``RenderServer(cache="lru")`` -> the
``"process"`` backend with one worker per usable CPU, on a free loopback
port.  Prints one JSON line ``{"port": ...}`` to stdout once it listens, and
shuts down (front end, then server and its workers) when stdin closes.

    python3 -m spbench.server_child '{"resolution": 64, ...}'
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    scene_kwargs = json.loads(sys.argv[1])
    from repro.serve import RenderServer, SceneStore, make_backend
    from repro.serve.http import HttpRenderFrontEnd
    from spbench.common import usable_cpus

    store = SceneStore(scene_kwargs=scene_kwargs)
    backend = make_backend("process", num_workers=usable_cpus())
    server = RenderServer(store, backend=backend, cache="lru")
    front = HttpRenderFrontEnd(server)
    try:
        _, port = front.run_in_thread()
        print(json.dumps({"port": port}), flush=True)
        sys.stdin.read()  # returns when the benchmark closes our stdin
    finally:
        front.shutdown()
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
