"""Declarative alert rules over the fleet health stream.

Rules are loaded from a JSON or TOML file and evaluated two ways: live —
by the tracer as health records are emitted (firing rules append id-free
``{"ev": "alert", ...}`` records to the trace) and by the
:class:`~repro.obs.live.TraceFollower` driving ``rhohammer status`` /
``top`` — and post-hoc over a finished trace by ``rhohammer analyze
--alerts``, whose exit code turns any firing into a deterministic CI
gate.  The follower and the post-hoc pass fold records through the same
:meth:`AlertEngine.feed`.

Three rule kinds::

    {"rules": [
      {"name": "rss-cap",       "expr": "rss_bytes > 2G"},
      {"name": "retry-budget",  "expr": "worker_retries >= 3",
       "severity": "critical"},
      {"name": "stalled",       "expr": "done < 0.5", "kind": "rate",
       "window": "10s"},
      {"name": "no-heartbeat",  "absent": "heartbeat", "for": "30s"}
    ]}

* **threshold** — ``expr`` compares a health-payload field (``rss_bytes``,
  ``open_fds``, ``throughput``, ``queue_depth`` ...) or an event count
  (``worker_retries``, ``worker_deaths`` — aliases for the ``chunk_retry``
  / ``worker_death`` event totals) against a value.  Values take binary
  ``K``/``M``/``G``/``T`` suffixes.
* **rate** — the same ``expr`` shape, but compared against the field's
  change per second over ``window``.
* **absence** — fires when no record of the named kind (``heartbeat``,
  ``health``) has been seen for ``for`` seconds.

Each rule latches: it fires at most once per run, carrying the observed
value, and stays listed as firing afterwards.
"""

from __future__ import annotations

import json
import operator
import os
import re
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.obs.health import ALERT_EV, HEALTH_EV

SEVERITIES = ("info", "warning", "critical")

#: Friendly rule-metric names for structured-event totals.
_COUNT_ALIASES = {
    "worker_retries": "chunk_retry",
    "retries": "chunk_retry",
    "worker_deaths": "worker_death",
    "deaths": "worker_death",
}

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}

_EXPR_RE = re.compile(
    r"^\s*([A-Za-z_][\w.]*)\s*(>=|<=|==|!=|>|<)\s*(\S+)\s*$"
)
_VALUE_RE = re.compile(
    r"^([-+]?[0-9]*\.?[0-9]+)\s*(?:([kKmMgGtT])i?[bB]?|[bB])?$"
)
_DURATION_RE = re.compile(r"^([0-9]*\.?[0-9]+)\s*(ms|s|m|h)?$")

_SUFFIX_BYTES = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}
_DURATION_S = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0}


class AlertRuleError(ValueError):
    """A rules file that cannot be parsed into valid rules."""


def parse_value(text: Any) -> float:
    """``"2G"`` → bytes; plain numbers pass through."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return float(text)
    match = _VALUE_RE.match(str(text).strip())
    if match is None:
        raise AlertRuleError(f"unparseable threshold value {text!r}")
    value = float(match.group(1))
    if match.group(2):
        value *= _SUFFIX_BYTES[match.group(2).lower()]
    return value


def parse_duration(text: Any) -> float:
    """``"30s"`` / ``"5m"`` / bare seconds → seconds."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return float(text)
    match = _DURATION_RE.match(str(text).strip())
    if match is None:
        raise AlertRuleError(f"unparseable duration {text!r}")
    return float(match.group(1)) * _DURATION_S[match.group(2) or "s"]


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule (see the module docstring for the file shape)."""

    name: str
    kind: str  # "threshold" | "rate" | "absence"
    metric: str
    op: str = ">"
    value: float = 0.0
    window_s: float = 30.0
    severity: str = "warning"

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "AlertRule":
        if not isinstance(raw, dict):
            raise AlertRuleError(f"rule entries must be objects: {raw!r}")
        name = raw.get("name")
        if not name or not isinstance(name, str):
            raise AlertRuleError(f"rule without a name: {raw!r}")
        severity = str(raw.get("severity", "warning"))
        if severity not in SEVERITIES:
            raise AlertRuleError(
                f"rule {name!r}: severity must be one of {SEVERITIES}"
            )
        if "absent" in raw:
            return cls(
                name=name,
                kind="absence",
                metric=str(raw["absent"]),
                window_s=parse_duration(raw.get("for", "30s")),
                severity=severity,
            )
        expr = raw.get("expr")
        if not expr:
            raise AlertRuleError(
                f"rule {name!r} needs an 'expr' or an 'absent' field"
            )
        match = _EXPR_RE.match(str(expr))
        if match is None:
            raise AlertRuleError(
                f"rule {name!r}: unparseable expr {expr!r} "
                "(expected 'metric OP value')"
            )
        metric, op, value_text = match.groups()
        kind = str(raw.get("kind", "threshold"))
        if kind not in ("threshold", "rate"):
            raise AlertRuleError(
                f"rule {name!r}: kind must be 'threshold' or 'rate'"
            )
        if "window" in raw and kind == "threshold":
            kind = "rate"
        return cls(
            name=name,
            kind=kind,
            metric=metric,
            op=op,
            value=parse_value(value_text),
            window_s=parse_duration(raw.get("window", "30s")),
            severity=severity,
        )

    def describe(self) -> str:
        if self.kind == "absence":
            return f"no {self.metric} for {self.window_s:g}s"
        shape = f"{self.metric} {self.op} {self.value:g}"
        if self.kind == "rate":
            return f"rate({shape})/{self.window_s:g}s"
        return shape


def load_rules(path: str | os.PathLike[str]) -> tuple[AlertRule, ...]:
    """Parse a JSON or TOML rules file into a rule tuple."""
    try:
        with open(path, "rb") as fh:
            raw_bytes = fh.read()
    except OSError as exc:
        raise AlertRuleError(f"cannot read rules file {path}: {exc}") from exc
    text = raw_bytes.decode("utf-8")
    data: Any = None
    if str(path).endswith(".toml"):
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise AlertRuleError(f"invalid TOML in {path}: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AlertRuleError(f"invalid JSON in {path}: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("rules", [])
    if not isinstance(data, list):
        raise AlertRuleError(
            f"{path}: expected a list of rules or {{'rules': [...]}}"
        )
    rules = tuple(AlertRule.from_dict(entry) for entry in data)
    seen: set[str] = set()
    for rule in rules:
        if rule.name in seen:
            raise AlertRuleError(f"duplicate rule name {rule.name!r}")
        seen.add(rule.name)
    return rules


class AlertEngine:
    """Evaluates rules against a stream of health/heartbeat payloads.

    Feed every ``health`` and ``heartbeat`` wall payload through
    :meth:`observe`; it returns the alert payloads newly fired by that
    observation (each rule latches after its first firing).  Readers of
    a recorded stream call :meth:`feed` with raw records instead, which
    also reports alert records fired live.  Absence rules are
    additionally checked against a caller-supplied clock via
    :meth:`check_absence`, and once more against the stream's final
    timestamp via :meth:`finish` for post-hoc evaluation.
    """

    def __init__(self, rules: Sequence[AlertRule] = ()) -> None:
        self.rules = tuple(rules)
        self.counts: dict[str, int] = {}
        self.fired: dict[str, dict[str, Any]] = {}
        self._history: dict[str, list[tuple[float, float]]] = {}
        self._last_seen: dict[str, float] = {}

    # -- state ---------------------------------------------------------
    @property
    def firing(self) -> list[dict[str, Any]]:
        """Every latched alert payload, in firing order."""
        return list(self.fired.values())

    def latch(self, rule_name: Any) -> None:
        """Mark a rule as already fired (e.g. an alert record was read)."""
        if isinstance(rule_name, str) and rule_name not in self.fired:
            self.fired[rule_name] = {"rule": rule_name}

    # -- evaluation ----------------------------------------------------
    def feed(self, record: dict[str, Any]) -> list[dict[str, Any]]:
        """Fold one raw trace record in; return the alerts it fires.

        An alert record fired live is reported once and latches its
        rule, so a rule never appears twice; health and heartbeat
        records go through :meth:`observe`; other records fire nothing.
        """
        ev = record.get("ev")
        wall = record.get("wall") or {}
        if ev == ALERT_EV:
            fired = [] if wall.get("rule") in self.fired else [dict(wall)]
            self.latch(wall.get("rule"))
            return fired
        if ev in (HEALTH_EV, "heartbeat"):
            return self.observe(wall, ev=ev)
        return []

    def observe(
        self, payload: dict[str, Any], ev: str = HEALTH_EV
    ) -> list[dict[str, Any]]:
        """Fold one wall payload in; return newly fired alert payloads."""
        t = float(payload.get("t") or 0.0)
        fired = self._check_absence_rules(t) if t else []
        if t:
            self._last_seen[ev] = t
        kind = payload.get("kind")
        if ev == HEALTH_EV and kind not in (None, "sample", "pool"):
            self.counts[str(kind)] = self.counts.get(str(kind), 0) + 1
        for rule in self.rules:
            if rule.name in self.fired or rule.kind == "absence":
                continue
            value = self._resolve(rule, payload)
            if value is None:
                continue
            if rule.kind == "rate":
                value = self._rate_of(rule, t, value)
                if value is None:
                    continue
            if _OPS[rule.op](value, rule.value):
                fired.append(self._fire(rule, value))
        return fired

    def check_absence(self, now_t: float) -> list[dict[str, Any]]:
        """Evaluate absence rules against a live wall clock."""
        return self._check_absence_rules(now_t)

    def finish(self, last_t: float | None) -> list[dict[str, Any]]:
        """Post-hoc tail check: the stream ended at ``last_t``."""
        if last_t is None:
            return []
        return self._check_absence_rules(last_t)

    # -- internals -----------------------------------------------------
    def _resolve(
        self, rule: AlertRule, payload: dict[str, Any]
    ) -> float | None:
        value = payload.get(rule.metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        count_key = _COUNT_ALIASES.get(rule.metric, rule.metric)
        if count_key in self.counts:
            return float(self.counts[count_key])
        return None

    def _rate_of(
        self, rule: AlertRule, t: float, value: float
    ) -> float | None:
        history = self._history.setdefault(rule.name, [])
        history.append((t, value))
        while history and t - history[0][0] > rule.window_s:
            history.pop(0)
        if len(history) < 2:
            return None
        t0, v0 = history[0]
        if t <= t0:
            return None
        return (value - v0) / (t - t0)

    def _check_absence_rules(self, now_t: float) -> list[dict[str, Any]]:
        fired = []
        for rule in self.rules:
            if rule.kind != "absence" or rule.name in self.fired:
                continue
            last = self._last_seen.get(rule.metric)
            if last is None:
                continue  # never seen: nothing to go absent yet
            gap = now_t - last
            if gap > rule.window_s:
                fired.append(self._fire(rule, gap))
        return fired

    def _fire(self, rule: AlertRule, value: float) -> dict[str, Any]:
        payload = {
            "rule": rule.name,
            "severity": rule.severity,
            "kind": rule.kind,
            "metric": rule.metric,
            "value": round(float(value), 4),
            "threshold": rule.value if rule.kind != "absence" else rule.window_s,
            "message": f"{rule.describe()} (observed {value:g})",
        }
        self.fired[rule.name] = payload
        return payload


def evaluate_records(
    records: Iterable[dict[str, Any]], rules: Sequence[AlertRule]
) -> list[dict[str, Any]]:
    """Post-hoc rule evaluation over a finished trace's records.

    Every record goes through :meth:`AlertEngine.feed`, then absence
    rules are checked once against the stream's last timestamp.  The
    returned list is deterministic for a deterministic stream — the
    basis of the ``analyze --alerts`` CI gate.
    """
    engine = AlertEngine(rules)
    fired: list[dict[str, Any]] = []
    last_t: float | None = None
    for record in records:
        fired.extend(engine.feed(record))
        t = (record.get("wall") or {}).get("t")
        if isinstance(t, (int, float)) and t:
            last_t = float(t)
    fired.extend(engine.finish(last_t))
    return fired
