#!/usr/bin/env bash
# Smoke test for the otterd compile service: boots a daemon with a tiny
# admission queue and an aggressive circuit breaker, then proves the
# robustness contract end to end over the real Unix socket —
#
#   * a healthy script compiles, runs, and returns its output;
#   * a crashing script (deterministic --fault-plan) gets a structured
#     runtime_error, and after enough strikes the E0010 quarantine;
#   * an oversized script is rejected with E0012 without being compiled;
#   * otterc -O1, a level that no longer exists, is a usage error (64);
#   * a concurrent flood sheds excess requests with E0008 while the server
#     keeps answering pings;
#   * warm-cache hits show up in the stats counters;
#   * a checkpointed run writes generations under --checkpoint-root and a
#     resume of the same job reproduces the original output;
#   * a daemon started *without* --allow-fault-injection rejects fault
#     plans with E0012 (the chaos knobs are an explicit opt-in);
#   * {"op":"shutdown"} drains and exits 0, removing the socket.
#
# Usage: scripts/daemon_smoke.sh OTTERD_BIN OTTERC_BIN
set -u

otterd="${1:?usage: daemon_smoke.sh OTTERD_BIN OTTERC_BIN}"
otterc="${2:?usage: daemon_smoke.sh OTTERD_BIN OTTERC_BIN}"

tmp="$(mktemp -d)"
sock="${tmp}/otterd.sock"
fails=0
daemon_pid=

daemon2_pid=

cleanup() {
  [[ -n "${daemon_pid}" ]] && kill "${daemon_pid}" 2>/dev/null
  [[ -n "${daemon2_pid}" ]] && kill "${daemon2_pid}" 2>/dev/null
  rm -rf "${tmp}"
}
trap cleanup EXIT

check() {  # check DESCRIPTION EXPECTED_EXIT ACTUAL_EXIT
  if [[ "$3" -eq "$2" ]]; then
    echo "ok: $1"
  else
    echo "FAIL: $1 (expected exit $2, got $3)"
    fails=$((fails + 1))
  fi
}

expect_grep() {  # expect_grep DESCRIPTION PATTERN FILE
  if grep -q "$2" "$3"; then
    echo "ok: $1"
  else
    echo "FAIL: $1 (no '$2' in $(basename "$3"))"
    sed 's/^/    | /' "$3"
    fails=$((fails + 1))
  fi
}

# Deliberately tight limits so every degradation path is reachable fast.
# Fault injection and checkpointing are both opt-in flags on the daemon;
# the smoke test exercises the chaos paths, so it opts in.
"${otterd}" --listen="${sock}" --workers=1 --queue=1 --max-script-kb=1 \
  --breaker-threshold=2 --breaker-cooldown=3600 --deadline=20 \
  --max-deadline=30 --allow-fault-injection \
  --checkpoint-root="${tmp}/ckpt" --checkpoint-mb=4 \
  2>"${tmp}/otterd.log" &
daemon_pid=$!

for _ in $(seq 1 50); do
  "${otterc}" --remote="${sock}" --op=ping >/dev/null 2>&1 && break
  sleep 0.1
done
"${otterc}" --remote="${sock}" --op=ping >/dev/null 2>&1
check "daemon answers ping" 0 $?

# -- healthy script ----------------------------------------------------------
good="${tmp}/good.m"
echo 'a = ones(4,4); b = a * 2; disp(sum(sum(b)))' > "${good}"
out="$("${otterc}" "${good}" --remote="${sock}" --np=2 2>"${tmp}/good.err")"
check "healthy script runs remotely" 0 $?
if [[ "${out}" == "32" ]]; then
  echo "ok: healthy script output"
else
  echo "FAIL: healthy script output (got '${out}')"
  fails=$((fails + 1))
fi

# -- crashing script: fault isolation, then quarantine -----------------------
crash="${tmp}/crash.m"
echo 'a = ones(4,4); b = a + a; disp(sum(sum(b)))' > "${crash}"
"${otterc}" "${crash}" --remote="${sock}" --np=2 --fault-plan=crash=0@1 \
  2>"${tmp}/crash1.err"
check "crashing script: first strike is a runtime error" 70 $?
expect_grep "first strike reports per-rank failures" "rank 0" "${tmp}/crash1.err"
"${otterc}" "${crash}" --remote="${sock}" --np=2 --fault-plan=crash=0@1 \
  2>/dev/null
check "crashing script: second strike is a runtime error" 70 $?
"${otterc}" "${crash}" --remote="${sock}" --np=2 --fault-plan=crash=0@1 \
  2>"${tmp}/crash3.err"
check "crashing script: third strike is quarantined (EX_TEMPFAIL)" 75 $?
expect_grep "quarantine carries E0010" "E0010" "${tmp}/crash3.err"

# The breaker keys on content: the healthy script is unaffected.
"${otterc}" "${good}" --remote="${sock}" --np=2 >/dev/null 2>&1
check "healthy script still runs while the crasher is quarantined" 0 $?

# -- oversized script --------------------------------------------------------
big="${tmp}/big.m"
{ echo 'x = 1;'; for _ in $(seq 1 200); do echo '% padding padding padding'; done; } > "${big}"
"${otterc}" "${big}" --remote="${sock}" 2>"${tmp}/big.err"
check "oversized script is rejected as a bad request" 64 $?
expect_grep "oversize rejection carries E0012" "E0012" "${tmp}/big.err"

# -- removed optimizer level ---------------------------------------------------
# -O0 and -O2 are the only levels: -O1 is a usage error, and no request
# reaches the daemon.
"${otterc}" "${good}" -O1 --remote="${sock}" >/dev/null 2>&1
check "otterc -O1 is a usage error" 64 $?

# -- overload shedding -------------------------------------------------------
# One worker, queue depth 1: firing 8 heavyweight requests at once MUST shed
# some (each is a distinct script, so no cache short-circuit).
shed_dir="${tmp}/flood"
mkdir -p "${shed_dir}"
for i in $(seq 1 8); do
  printf 'a = ones(300,300); b = a * a; c = b * a; disp(sum(sum(c)) + %d)\n' \
    "${i}" > "${shed_dir}/f${i}.m"
done
pids=()
for i in $(seq 1 8); do
  "${otterc}" "${shed_dir}/f${i}.m" --remote="${sock}" \
    2>"${shed_dir}/f${i}.err" >/dev/null &
  pids+=($!)
done
shed_count=0
ok_count=0
for idx in "${!pids[@]}"; do
  wait "${pids[$idx]}"
  rc=$?
  if [[ ${rc} -eq 75 ]]; then shed_count=$((shed_count + 1)); fi
  if [[ ${rc} -eq 0 ]]; then ok_count=$((ok_count + 1)); fi
done
if [[ ${shed_count} -ge 1 && ${ok_count} -ge 1 ]]; then
  echo "ok: flood sheds some requests and serves others (${ok_count} ok, ${shed_count} shed)"
else
  echo "FAIL: flood outcome (${ok_count} ok, ${shed_count} shed of 8)"
  fails=$((fails + 1))
fi
if grep -q "E0008" "${shed_dir}"/f*.err; then
  echo "ok: shed responses carry E0008"
else
  echo "FAIL: no E0008 in any flood response"
  fails=$((fails + 1))
fi

# The daemon survived all of the above.
"${otterc}" --remote="${sock}" --op=ping >/dev/null 2>&1
check "daemon is still alive after crashes, floods, and rejections" 0 $?

# -- warm-cache counters -----------------------------------------------------
"${otterc}" "${good}" --remote="${sock}" --np=2 >/dev/null 2>&1
stats="$("${otterc}" --remote="${sock}" --op=stats)"
if echo "${stats}" | grep -q '"cache_hits":0[,}]'; then
  echo "FAIL: stats shows zero cache hits after repeat requests: ${stats}"
  fails=$((fails + 1))
else
  echo "ok: repeat requests hit the artifact cache"
fi
expect_grep "stats reports the breaker trip" '"breaker_trips":1' <(echo "${stats}")

# -- checkpoint/resume over the socket ---------------------------------------
ckpt_script="${tmp}/ckpt.m"
{
  echo 'a = ones(6,6);'
  echo 's = 0;'
  for _ in $(seq 1 6); do
    echo 'a = a + 1;'
    echo 's = s + sum(sum(a));'
  done
  echo 'disp(s)'
} > "${ckpt_script}"
out1="$("${otterc}" "${ckpt_script}" --remote="${sock}" --np=2 \
  --checkpoint-dir=smoke-job --checkpoint=2 2>"${tmp}/ckpt1.err")"
check "checkpointed remote run succeeds" 0 $?
if ls "${tmp}/ckpt/smoke-job"/gen-*.ckpt >/dev/null 2>&1; then
  echo "ok: checkpoint generations written under the server root"
else
  echo "FAIL: no gen-*.ckpt under ${tmp}/ckpt/smoke-job"
  fails=$((fails + 1))
fi
out2="$("${otterc}" "${ckpt_script}" --remote="${sock}" --np=2 \
  --checkpoint-dir=smoke-job --checkpoint=2 --resume 2>"${tmp}/ckpt2.err")"
check "resumed remote run succeeds" 0 $?
if [[ "${out2}" == "${out1}" ]]; then
  echo "ok: resumed run reproduces the original output"
else
  echo "FAIL: resume output mismatch ('${out2}' vs '${out1}')"
  fails=$((fails + 1))
fi

# -- fault-plan gating: a default daemon rejects chaos knobs ------------------
sock2="${tmp}/otterd2.sock"
"${otterd}" --listen="${sock2}" --workers=1 --queue=1 \
  2>"${tmp}/otterd2.log" &
daemon2_pid=$!
for _ in $(seq 1 50); do
  "${otterc}" --remote="${sock2}" --op=ping >/dev/null 2>&1 && break
  sleep 0.1
done
"${otterc}" "${crash}" --remote="${sock2}" --np=2 --fault-plan=crash=0@1 \
  2>"${tmp}/gated.err"
check "default daemon rejects fault plans as a bad request" 64 $?
expect_grep "fault-plan gating carries E0012" "E0012" "${tmp}/gated.err"
"${otterc}" "${crash}" --remote="${sock2}" --np=2 --checkpoint-dir=j1 \
  2>"${tmp}/gated2.err"
check "default daemon rejects checkpointing (no --checkpoint-root)" 64 $?
expect_grep "checkpoint gating carries E0012" "E0012" "${tmp}/gated2.err"
# A malformed plan never reaches any server: otterc validates eagerly.
"${otterc}" "${crash}" --remote="${sock2}" --np=2 --fault-plan=crash=zz \
  2>"${tmp}/eager.err"
check "malformed fault plan is rejected client-side" 64 $?
expect_grep "eager validation carries E0013" "E0013" "${tmp}/eager.err"
"${otterc}" --remote="${sock2}" --op=shutdown >/dev/null 2>&1
wait "${daemon2_pid}" 2>/dev/null
daemon2_pid=

# -- clean shutdown ----------------------------------------------------------
"${otterc}" --remote="${sock}" --op=shutdown >/dev/null 2>&1
check "shutdown op is acknowledged" 0 $?
shutdown_ok=1
for _ in $(seq 1 50); do
  kill -0 "${daemon_pid}" 2>/dev/null || { shutdown_ok=0; break; }
  sleep 0.1
done
if [[ ${shutdown_ok} -eq 0 ]]; then
  wait "${daemon_pid}"
  check "daemon exited cleanly" 0 $?
  daemon_pid=
else
  echo "FAIL: daemon did not exit after shutdown op"
  fails=$((fails + 1))
fi
if [[ ! -S "${sock}" ]]; then
  echo "ok: socket removed on shutdown"
else
  echo "FAIL: socket left behind on shutdown"
  fails=$((fails + 1))
fi

echo
if [[ ${fails} -eq 0 ]]; then
  echo "daemon_smoke: all checks passed"
  exit 0
fi
echo "daemon_smoke: ${fails} check(s) FAILED"
exit 1
