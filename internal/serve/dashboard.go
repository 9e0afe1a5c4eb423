package serve

import (
	"io"
	"net/http"
)

// handleDashboard serves the self-contained live dashboard. Everything is
// inline — one HTML document, no external assets — so the page works from a
// bare daemon with no static-file serving and survives being saved to disk.
func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, dashboardHTML)
}

// dashboardHTML polls /metrics (parsed client-side with the same line
// grammar the Go parser enforces) and /jobs every 2s, draws a queue-depth
// sparkline, derives latency quantiles from histogram buckets, and attaches
// an EventSource to the newest non-terminal job for the live event pane.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>mlnoc simd dashboard</title>
<style>
  body { font-family: ui-monospace, SFMono-Regular, Menlo, Consolas, monospace;
         background: #11151a; color: #d8dee9; margin: 1.5rem; }
  h1 { font-size: 1.1rem; font-weight: 600; }
  h1 .drain { color: #bf616a; display: none; }
  .tiles { display: flex; flex-wrap: wrap; gap: .8rem; margin-bottom: 1rem; }
  .tile { background: #1b222c; border: 1px solid #2e3946; border-radius: 6px;
          padding: .6rem .9rem; min-width: 8.5rem; }
  .tile .v { font-size: 1.5rem; font-weight: 700; color: #88c0d0; }
  .tile .k { font-size: .7rem; color: #7b8794; text-transform: uppercase; }
  table { border-collapse: collapse; width: 100%; margin-bottom: 1rem; }
  th, td { text-align: left; padding: .25rem .6rem; border-bottom: 1px solid #2e3946;
           font-size: .8rem; }
  th { color: #7b8794; text-transform: uppercase; font-size: .7rem; }
  .done { color: #a3be8c; } .failed { color: #bf616a; }
  .running { color: #ebcb8b; } .queued { color: #81a1c1; } .cancelled { color: #7b8794; }
  #spark { background: #1b222c; border: 1px solid #2e3946; border-radius: 6px; }
  #events { background: #1b222c; border: 1px solid #2e3946; border-radius: 6px;
            padding: .6rem; height: 10rem; overflow-y: auto; font-size: .75rem;
            white-space: pre-wrap; }
  .section { margin-bottom: .4rem; color: #7b8794; font-size: .75rem;
             text-transform: uppercase; }
</style>
</head>
<body>
<h1>mlnoc simd <span class="drain" id="drain">DRAINING</span></h1>
<div class="tiles">
  <div class="tile"><div class="v" id="t-depth">–</div><div class="k">queue depth</div></div>
  <div class="tile"><div class="v" id="t-busy">–</div><div class="k">busy / workers</div></div>
  <div class="tile"><div class="v" id="t-done">–</div><div class="k">jobs done</div></div>
  <div class="tile"><div class="v" id="t-failed">–</div><div class="k">jobs failed</div></div>
  <div class="tile"><div class="v" id="t-cache">–</div><div class="k">cache hit ratio</div></div>
  <div class="tile"><div class="v" id="t-evict">–</div><div class="k">evict / spill</div></div>
  <div class="tile"><div class="v" id="t-alerts">–</div><div class="k">watchdog alerts</div></div>
</div>
<div class="section">queue depth (last 60 samples)</div>
<canvas id="spark" width="600" height="60"></canvas>
<div class="section" style="margin-top:1rem">job latency quantiles (seconds)</div>
<table id="lat"><thead><tr><th>type</th><th>count</th><th>p50</th><th>p90</th><th>p99</th></tr></thead><tbody></tbody></table>
<div class="section">jobs</div>
<table id="jobs"><thead><tr><th>id</th><th>corr</th><th>type</th><th>state</th><th>progress</th></tr></thead><tbody></tbody></table>
<div class="section">live events <span id="ev-job"></span></div>
<div id="events"></div>
<script>
"use strict";
const depths = [];
let es = null, esJob = null;

// parseMetrics reads the exposition text into {name -> [{labels, value}]}.
function parseMetrics(text) {
  const fams = {};
  for (const line of text.split("\n")) {
    if (!line || line.startsWith("#")) continue;
    const m = line.match(/^([A-Za-z_:][A-Za-z0-9_:]*)(\{.*\})? (\S+)$/);
    if (!m) continue;
    const labels = {};
    if (m[2]) for (const kv of m[2].slice(1, -1).match(/[A-Za-z_][A-Za-z0-9_]*="(?:[^"\\]|\\.)*"/g) || []) {
      const eq = kv.indexOf("=");
      labels[kv.slice(0, eq)] = kv.slice(eq + 2, -1)
        .replace(/\\n/g, "\n").replace(/\\"/g, '"').replace(/\\\\/g, "\\");
    }
    (fams[m[1]] = fams[m[1]] || []).push({ labels, value: parseFloat(m[3]) });
  }
  return fams;
}

function sum(fams, name, want) {
  let t = 0;
  for (const s of fams[name] || []) {
    if (want && Object.entries(want).some(([k, v]) => s.labels[k] !== v)) continue;
    t += s.value;
  }
  return t;
}

// quantile estimates the q-th quantile from cumulative _bucket samples by
// linear interpolation inside the containing bucket; one landing in the +Inf
// bucket reports the last finite bound.
function quantile(buckets, q) {
  const total = buckets.length ? buckets[buckets.length - 1].value : 0;
  if (!total) return 0;
  const target = q * total;
  let prevCum = 0, lower = 0;
  for (const b of buckets) {
    if (b.value >= target && b.value > prevCum) {
      if (b.le === Infinity) return lower;
      const frac = (target - prevCum) / (b.value - prevCum);
      return lower + frac * (b.le - lower);
    }
    prevCum = b.value;
    if (b.le !== Infinity) lower = b.le;
  }
  return lower;
}

function fmt(v) { return v >= 100 ? v.toFixed(0) : v >= 1 ? v.toFixed(2) : v.toPrecision(2); }

function drawSpark() {
  const c = document.getElementById("spark"), ctx = c.getContext("2d");
  ctx.clearRect(0, 0, c.width, c.height);
  const max = Math.max(1, ...depths);
  ctx.strokeStyle = "#88c0d0"; ctx.beginPath();
  depths.forEach((d, i) => {
    const x = i * (c.width / 60), y = c.height - 4 - (d / max) * (c.height - 8);
    i ? ctx.lineTo(x, y) : ctx.moveTo(x, y);
  });
  ctx.stroke();
}

async function tickMetrics() {
  const text = await (await fetch("metrics")).text();
  const fams = parseMetrics(text);
  const depth = sum(fams, "mlnoc_queue_depth");
  depths.push(depth); if (depths.length > 60) depths.shift();
  drawSpark();
  document.getElementById("t-depth").textContent = depth;
  document.getElementById("t-busy").textContent =
    sum(fams, "mlnoc_pool_busy") + " / " + sum(fams, "mlnoc_pool_workers");
  document.getElementById("t-done").textContent = sum(fams, "mlnoc_jobs_finished_total", { state: "done" });
  document.getElementById("t-failed").textContent = sum(fams, "mlnoc_jobs_finished_total", { state: "failed" });
  const hits = sum(fams, "mlnoc_cache_hits_total"), misses = sum(fams, "mlnoc_cache_misses_total");
  document.getElementById("t-cache").textContent =
    hits + misses ? (100 * hits / (hits + misses)).toFixed(0) + "%" : "–";
  document.getElementById("t-evict").textContent =
    sum(fams, "mlnoc_cache_evictions_total") + " / " + sum(fams, "mlnoc_cache_spills_total");
  document.getElementById("t-alerts").textContent = sum(fams, "mlnoc_watchdog_alerts_total");
  document.getElementById("drain").style.display = sum(fams, "mlnoc_draining") ? "inline" : "none";

  const byType = {};
  for (const s of fams["mlnoc_job_latency_seconds_bucket"] || []) {
    const t = s.labels.type || "";
    (byType[t] = byType[t] || []).push({ le: s.labels.le === "+Inf" ? Infinity : parseFloat(s.labels.le), value: s.value });
  }
  const tbody = document.querySelector("#lat tbody");
  tbody.innerHTML = "";
  for (const t of Object.keys(byType).sort()) {
    const b = byType[t].sort((x, y) => x.le - y.le);
    const row = tbody.insertRow();
    [t, b[b.length - 1].value, fmt(quantile(b, .5)), fmt(quantile(b, .9)), fmt(quantile(b, .99))]
      .forEach(v => row.insertCell().textContent = v);
  }
}

async function tickJobs() {
  const jobs = await (await fetch("jobs")).json();
  const tbody = document.querySelector("#jobs tbody");
  tbody.innerHTML = "";
  for (const j of jobs.slice(-20).reverse()) {
    const row = tbody.insertRow();
    const prog = j.progress ? j.progress.done + "/" + j.progress.total : (j.cached ? "cached" : "");
    [j.id, j.corr_id || "", j.type, j.state, prog].forEach((v, i) => {
      const cell = row.insertCell();
      cell.textContent = v;
      if (i === 3) cell.className = j.state;
    });
  }
  // Follow the newest job that can still emit events.
  const live = jobs.filter(j => j.state === "queued" || j.state === "running").pop();
  if (live && live.id !== esJob) {
    if (es) es.close();
    esJob = live.id;
    document.getElementById("ev-job").textContent = "(" + live.id + ")";
    es = new EventSource("jobs/" + live.id + "/stream");
    for (const kind of ["status", "progress", "snapshot", "alert"]) {
      es.addEventListener(kind, ev => {
        const pane = document.getElementById("events");
        pane.textContent += kind + " " + ev.data + "\n";
        pane.scrollTop = pane.scrollHeight;
      });
    }
  }
}

function tick() { tickMetrics().catch(() => {}); tickJobs().catch(() => {}); }
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`
