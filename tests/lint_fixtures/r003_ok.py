"""R003 negative fixture: module-level pure workers."""


def resilient_map(task, payloads, *, jobs, keys):
    return [task(*payload) for payload in payloads]


def pure_worker(payload):
    return payload * 2


def run(payloads):
    return resilient_map(
        pure_worker,
        [(payload,) for payload in payloads],
        jobs=2,
        keys=[str(payload) for payload in payloads],
    )
