"""Start-up hook for pool worker processes in a traced benchmark run.

The traced run puts this directory on the ``PYTHONPATH`` its pool
workers inherit and sets ``PERFBENCH_WORKER_TRACE=1``; Python then
imports this module as ``sitecustomize`` when a worker starts.  It
installs the benchmark's span wrappers inside the worker and ships
each statement's spans home inside the per-call ``sys.statements``
record of the reply, where the parent grafts them under its
``pool.submit`` span.  With the variable unset it does nothing.
"""

import os
import sys

if os.environ.get("PERFBENCH_WORKER_TRACE") == "1":
    sys.path.insert(0, os.environ["PERFBENCH_ROOT"])
    from perfbench.tracing import install_worker

    install_worker()
