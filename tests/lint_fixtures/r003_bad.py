"""R003 positive fixture: unpicklable and impure pool workers."""

_COUNTER = 0


def resilient_map(task, payloads, *, jobs, keys):
    return [task(*payload) for payload in payloads]


def impure_worker(payload):
    global _COUNTER
    _COUNTER = _COUNTER + 1  # retried tasks observe divergent state
    return payload


def run(payloads):
    keys = [str(payload) for payload in payloads]
    doubled = resilient_map(
        lambda payload: payload * 2,  # lambdas cannot cross processes
        [(payload,) for payload in payloads],
        jobs=2,
        keys=keys,
    )
    return doubled, resilient_map(
        impure_worker, [(payload,) for payload in payloads], jobs=2, keys=keys
    )
