//! The `serve` workload: an in-process `tablesegd` driven in a closed
//! loop over loopback TCP.
//!
//! Requests draw sites with Zipf-skewed popularity from a pool larger
//! than the daemon's site cache; a share of them carry one list page
//! changed after the table, which sends the daemon down its refresh
//! path. Two client threads each send a request as soon as their
//! previous reply is parsed, framing requests as `tableseg_serve::client`
//! does (`proto::encode_request`, one HTTP/1.1 request per connection)
//! and parsing replies with `proto::parse_response`. Set-up warms the
//! cache through `client::segment`.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tableseg_eval::classify::PageCounts;
use tableseg_serve::client;
use tableseg_serve::proto::{encode_request, parse_response};
use tableseg_serve::{SegmentRequest, SegmentResponse, Server, ServerConfig, TargetSpec};
use tableseg_sitegen::site::GeneratedSite;
use tableseg_sitegen::{Universe, UniverseConfig};

use crate::batch::{self, PageResult, Status};
use crate::stats::{self, f_measure, Metric, Rng};
use crate::trace::{layer_totals, Span, Tracer};
use crate::{Args, Outcome};

/// Sites in the request pool: larger than the daemon's 64-entry cache.
const POOL_SITES: usize = 160;
/// Seed of the pool's universe and popularity ranking.
const POOL_SEED: u64 = 0x5E7E;
/// Zipf exponent of site popularity. Breslau, Cao, Fan, Phillips and
/// Shenker ("Web Caching and Zipf-like Distributions: Evidence and
/// Implications", INFOCOM 1999) fit exponents of 0.64 to 0.83 to the
/// request popularity of six web proxy traces; this is inside that range.
const ZIPF_S: f64 = 0.8;
/// Share of requests that carry one changed list page. An assumption,
/// not a measurement: no source gives a per-request change rate for list
/// pages. README.md gives the response shares it produces.
const CHANGE_SHARE: f64 = 0.05;
/// Changed versions per site (each changes a different list page).
const VARIANTS: usize = 3;
/// Client threads of the closed loop, one per daemon worker (and at most
/// `nproc` = 2). Each sends its next request when its previous reply is
/// parsed, so requests never queue behind each other at the daemon and
/// p99 measures the pipeline on misses. With an open loop at 50 to
/// 100 req/s, whether two misses happened to overlap decided p99, which
/// then spread by 0.27 to 0.41 over ten seeds.
const CLIENTS: usize = 2;
/// Requests in the seeded sequence per second of the window; more than
/// the clients can send, so the sequence does not repeat.
const SEQUENCE_RPS: usize = 2000;
/// Sites requested (most popular first) to warm the cache in set-up.
const WARMUP_SITES: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The site pool with its popularity ranking. It is the same for every
/// seed, like the paper corpus; the seed draws the request sequence.
struct Pool {
    sites: Vec<GeneratedSite>,
    /// Site indices by popularity rank.
    by_rank: Vec<usize>,
    /// Cumulative Zipf weights over ranks.
    cdf: Vec<f64>,
}

impl Pool {
    fn build() -> Pool {
        let mut rng = Rng::new(POOL_SEED);
        let universe = Universe::new(UniverseConfig {
            sites: POOL_SITES,
            seed: rng.next_u64(),
            ..UniverseConfig::default()
        });
        let sites: Vec<GeneratedSite> = universe.sites().collect();
        let mut by_rank: Vec<usize> = (0..sites.len()).collect();
        rng.shuffle(&mut by_rank);
        let mut cdf = Vec::with_capacity(sites.len());
        let mut acc = 0.0;
        for rank in 0..sites.len() {
            acc += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Pool {
            sites,
            by_rank,
            cdf,
        }
    }

    fn draw(&self, rng: &mut Rng) -> (usize, usize) {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        let variant = if rng.unit() < CHANGE_SHARE {
            1 + rng.below(VARIANTS)
        } else {
            0
        };
        (self.by_rank[rank], variant)
    }

    fn bytes(&self) -> usize {
        self.sites.iter().map(batch::site_bytes).sum()
    }

    fn pages(&self) -> usize {
        self.sites.iter().map(|s| s.pages.len()).sum()
    }
}

/// The list pages of `site`, with list page `(variant - 1) % n` changed
/// after its table when `variant > 0`.
fn variant_lists(site: &GeneratedSite, variant: usize) -> Vec<String> {
    let n = site.pages.len();
    site.pages
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if variant == 0 || i != (variant - 1) % n {
                return p.list_html.clone();
            }
            let note = format!("<p>Listing refreshed: revision {variant}</p>");
            let table_end = p.truth.records.iter().map(|r| r.end).max().unwrap_or(0);
            let mut html = p.list_html.clone();
            match html.rfind("</body>").filter(|&at| at >= table_end) {
                Some(at) => html.insert_str(at, &note),
                None => html.push_str(&note),
            }
            html
        })
        .collect()
}

fn request(site: &GeneratedSite, variant: usize) -> SegmentRequest {
    SegmentRequest {
        site: site.spec.name.clone(),
        list_pages: variant_lists(site, variant),
        targets: site
            .pages
            .iter()
            .enumerate()
            .map(|(target, p)| TargetSpec {
                target,
                details: p.detail_html.clone(),
            })
            .collect(),
    }
}

/// One request of the seeded sequence.
#[derive(Debug, Clone, Copy)]
struct Slot {
    site: usize,
    variant: usize,
}

fn sequence(pool: &Pool, rng: &mut Rng, n: usize) -> Vec<Slot> {
    (0..n)
        .map(|_| {
            let (site, variant) = pool.draw(rng);
            Slot { site, variant }
        })
        .collect()
}

/// What one request produced.
#[derive(Debug)]
struct Sample {
    slot: Slot,
    /// From the start of encoding to the parsed response.
    service: Duration,
    /// Client-side `encode_request`.
    encode: Duration,
    /// From connecting to the end of the response.
    roundtrip: Duration,
    /// Client-side `parse_response`.
    parse: Duration,
    /// HTTP status; 0 for a transport error.
    status: u16,
    /// The response, without its page results (kept as `digest` and
    /// `counts`, so memory does not grow with the number of requests).
    response: Option<SegmentResponse>,
    /// Digest of the response's page results (see [`batch::digest`]).
    digest: u64,
    /// CSP and probabilistic record counts of the served pages against
    /// the ground truth.
    counts: (PageCounts, PageCounts),
    /// Extracts over the served pages.
    extracts: usize,
    /// When encoding started, relative to the phase start.
    start: Duration,
}

impl Sample {
    /// Latency in ms; a failed request counts as missing any limit.
    fn latency_ms(&self) -> f64 {
        if self.response.is_some() {
            ms(self.service)
        } else {
            FAILED_MS
        }
    }
}

/// The latency a failed request is counted with.
const FAILED_MS: f64 = 1e9;
/// A request still unanswered after this is counted as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// [`CLIENTS`] client threads, each sending its next request of `seq`
/// as soon as its previous reply is parsed (closed loop), until `budget`
/// has elapsed. Returns the samples in sequence order.
fn drive(addr: SocketAddr, pool: &Pool, seq: &[Slot], budget: Duration) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while t0.elapsed() < budget {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        out.push((idx, send(addr, pool, seq[idx % seq.len()], t0)));
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    samples.sort_by_key(|(idx, _)| *idx);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// The request as `tableseg_serve::client` frames it: one HTTP/1.1
/// request per connection, read until the daemon closes it.
fn write_request(addr: SocketAddr, body: &str) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    let head = format!(
        "POST /segment HTTP/1.1\r\nhost: tablesegd\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    Ok(stream)
}

/// Sends one request and reads its reply to the end. Encoding and
/// parsing are timed as client codec.
fn send(addr: SocketAddr, pool: &Pool, slot: Slot, t0: Instant) -> Sample {
    let site = &pool.sites[slot.site];
    let req = request(site, slot.variant);
    let start = Instant::now();
    let body = encode_request(&req);
    let encode = start.elapsed();
    let sent = Instant::now();
    let mut buf = Vec::new();
    let ok = write_request(addr, &body)
        .and_then(|mut stream| stream.read_to_end(&mut buf))
        .is_ok();
    let read_end = Instant::now();
    let (status, body) = if ok { split_http(&buf) } else { (0, "") };
    let response = if status == 200 {
        parse_response(body).ok()
    } else {
        None
    };
    let end = Instant::now();
    let mut counts = (PageCounts::default(), PageCounts::default());
    let mut digest = 0;
    let mut extracts = 0;
    // Only the digest and the counts are kept: the page results and the
    // per-request manifest would make memory grow with the request count.
    let response = response.map(|r| {
        let results = page_results(&r);
        digest = batch::digest(&results);
        extracts = results.iter().map(|p| p.offsets.len()).sum();
        for (m, pr) in r.page_results.iter().zip(&results) {
            let (c, p) = pr.score(site, m.target);
            counts = (counts.0.add(&c), counts.1.add(&p));
        }
        SegmentResponse {
            manifest: String::new(),
            page_results: Vec::new(),
            ..r
        }
    });
    Sample {
        slot,
        service: end - start,
        encode,
        roundtrip: read_end - sent,
        parse: end - read_end,
        status,
        response,
        digest,
        counts,
        extracts,
        start: start - t0,
    }
}

/// Status code and body of a raw HTTP response (0 when malformed).
fn split_http(raw: &[u8]) -> (u16, &str) {
    let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return (0, "");
    };
    let head = std::str::from_utf8(&raw[..head_end]).unwrap_or("");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (
        status,
        std::str::from_utf8(&raw[head_end + 4..]).unwrap_or(""),
    )
}

fn start_server() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        batch_threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind a loopback port")
}

/// Set-up: input generation, daemon start and cache warm-up.
fn setup() -> (Pool, Server, f64) {
    let start = Instant::now();
    let pool = Pool::build();
    let server = start_server();
    warm(&server, &pool);
    (pool, server, start.elapsed().as_secs_f64())
}

fn warm(server: &Server, pool: &Pool) {
    for &site in pool.by_rank.iter().take(WARMUP_SITES) {
        let _ = client::segment(server.addr(), &request(&pool.sites[site], 0), None, false);
    }
}

/// Checks every sample and compares full-build responses with the batch
/// pipeline on the same bytes. Returns how many requests failed, and the
/// failures found.
fn check(pool: &Pool, samples: &[&Sample]) -> (usize, Vec<String>) {
    let mut errors = Vec::new();
    let mut failed = 0usize;
    // (site, generation) → the sample whose request produced that state.
    let mut origin: HashMap<(String, u64), usize> = HashMap::new();
    for (i, s) in samples.iter().enumerate() {
        let Some(r) = &s.response else {
            failed += 1;
            continue;
        };
        let targets = pool.sites[s.slot.site].pages.len();
        if r.pages != targets || r.pages != r.ok + r.degraded + r.failed {
            errors.push(format!(
                "{}: pages {} != ok {} + degraded {} + failed {} (targets {targets})",
                r.site, r.pages, r.ok, r.degraded, r.failed
            ));
        }
        failed += usize::from(r.failed > 0);
        if r.cache != "warm" {
            origin.insert((r.site.clone(), r.generation), i);
        }
    }
    let mut reference: HashMap<(usize, usize), u64> = HashMap::new();
    for s in samples {
        let Some(r) = &s.response else { continue };
        // A warm response repeats the response that built its state; a
        // state with no such response was built by the set-up warm-up,
        // which is a full build.
        let built_by = match r.cache.as_str() {
            "warm" => origin
                .get(&(r.site.clone(), r.generation))
                .map(|&o| samples[o]),
            _ => Some(*s),
        };
        if let Some(src) =
            built_by.filter(|b| b.response.as_ref().is_some_and(|r| r.cache == "refresh"))
        {
            // A refreshed template approximates a full build; warm hits
            // on it must repeat the refresh response.
            if src.digest != s.digest {
                errors.push(format!(
                    "{}: warm response differs from the refresh that built its state",
                    r.site
                ));
            }
            continue;
        }
        let key = (s.slot.site, s.slot.variant);
        let expected = *reference
            .entry(key)
            .or_insert_with(|| batch::digest(&batch_reference(pool, key)));
        if s.digest != expected {
            errors.push(format!(
                "{} ({} response, variant {}): segmentation differs from the batch pipeline on the same bytes",
                r.site, r.cache, s.slot.variant
            ));
        }
    }
    (failed, errors)
}

/// The batch pipeline's results on the bytes of `(site, variant)`.
fn batch_reference(pool: &Pool, (site, variant): (usize, usize)) -> Vec<PageResult> {
    let mut changed = pool.sites[site].clone();
    for (page, html) in changed
        .pages
        .iter_mut()
        .zip(variant_lists(&pool.sites[site], variant))
    {
        page.list_html = html;
    }
    batch::run_site(&changed, &mut Tracer::new(false), None)
}

fn page_results(r: &SegmentResponse) -> Vec<PageResult> {
    r.page_results.iter().map(to_page_result).collect()
}

fn to_page_result(m: &tableseg_serve::PageResultMsg) -> PageResult {
    let status = match m.status.as_str() {
        "ok" => Status::Ok,
        "degraded" => Status::Degraded,
        _ => Status::Failed,
    };
    if status == Status::Failed {
        return PageResult::failed();
    }
    PageResult {
        status,
        whole_page: m.whole_page,
        csp_relaxed: m.csp.as_ref().is_some_and(|c| c.relaxed),
        offsets: m.offsets.clone(),
        csp: m.csp.as_ref().map(|c| c.groups.clone()).unwrap_or_default(),
        prob: m
            .prob
            .as_ref()
            .map(|c| c.groups.clone())
            .unwrap_or_default(),
    }
}

/// F over every page served, against the generator's ground truth (the
/// changed versions only add text after the table, so truth holds).
fn score(samples: &[Sample]) -> (f64, f64, usize) {
    let mut csp = PageCounts::default();
    let mut prob = PageCounts::default();
    let mut pages = 0;
    for s in samples {
        let Some(r) = &s.response else { continue };
        csp = csp.add(&s.counts.0);
        prob = prob.add(&s.counts.1);
        pages += r.pages;
    }
    (f_measure(&csp), f_measure(&prob), pages)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::latency_ms).collect()
}

fn kind_shares(samples: &[Sample]) -> Vec<(&'static str, String)> {
    let n = samples.len().max(1) as f64;
    [
        ("share_warm", "warm"),
        ("share_cold", "cold"),
        ("share_refresh", "refresh"),
        ("share_rebuild", "rebuild"),
    ]
    .into_iter()
    .map(|(key, kind)| {
        let c = samples
            .iter()
            .filter(|s| s.response.as_ref().is_some_and(|r| r.cache == kind))
            .count();
        (key, stats::num(c as f64 / n))
    })
    .collect()
}

fn inputs_block(
    args: &Args,
    pool: &Pool,
    samples: &[Sample],
    wall: Duration,
    steal: f64,
) -> Vec<(&'static str, String)> {
    let mut inputs = vec![
        ("seed", args.seed.to_string()),
        ("sites", pool.sites.len().to_string()),
        ("pages", pool.pages().to_string()),
        ("bytes", pool.bytes().to_string()),
        (
            "extracts_served",
            samples
                .iter()
                .map(|s| s.extracts)
                .sum::<usize>()
                .to_string(),
        ),
        (
            "cache_capacity",
            ServerConfig::default().cache_capacity.to_string(),
        ),
        ("clients", CLIENTS.to_string()),
        ("samples", samples.len().to_string()),
        ("window_s", stats::num(wall.as_secs_f64())),
        (
            "requests_per_s",
            stats::num(samples.len() as f64 / wall.as_secs_f64()),
        ),
        ("steal_s", stats::num(steal)),
        (
            "rejected",
            samples
                .iter()
                .filter(|s| s.status == 429)
                .count()
                .to_string(),
        ),
    ];
    inputs.extend(kind_shares(samples));
    inputs
}

/// The timed window: the closed loop over the seeded request sequence
/// for the run's seconds. Returns the samples, the wall time until the
/// last reply and the machine's steal time meanwhile.
fn window(args: &Args, pool: &Pool, server: &Server) -> (Vec<Sample>, Duration, f64) {
    let mut rng = Rng::new(args.seed ^ 0xF1CED);
    let n = (SEQUENCE_RPS as f64 * args.seconds.as_secs_f64()).ceil() as usize;
    let seq = sequence(pool, &mut rng, n.max(1));
    let steal0 = stats::steal_s();
    let t = Instant::now();
    let samples = drive(server.addr(), pool, &seq, args.seconds);
    (samples, t.elapsed(), stats::steal_s() - steal0)
}

/// The untraced run: every end-to-end metric.
pub fn run(args: &Args) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut current: Option<(Pool, Server)> = None;
    for _ in 0..SETUPS {
        if let Some((_, server)) = current.take() {
            server.shutdown();
        }
        let (pool, server, secs) = setup();
        setups.push(secs);
        current = Some((pool, server));
    }
    let (pool, server) = current.expect("at least one set-up");
    let (samples, wall, steal) = window(args, &pool, &server);
    server.shutdown();

    let (f_csp, f_prob, pages) = score(&samples);
    let all: Vec<&Sample> = samples.iter().collect();
    let (failed, errors) = check(&pool, &all);
    let latency = latencies_ms(&samples);
    let metrics = vec![
        Metric::median_of("setup_s", "s", &setups),
        Metric::single("pages_per_s", "pages/s", pages as f64 / wall.as_secs_f64()),
        Metric::single("f_csp", "ratio", f_csp),
        Metric::single("f_prob", "ratio", f_prob),
        Metric::median_of("p50_ms", "ms", &latency),
        Metric {
            value: stats::quantile(&latency, 0.99),
            ..Metric::median_of("p99_ms", "ms", &latency)
        },
        Metric::single("peak_rss_mb", "MiB", stats::peak_rss_mb()),
    ];
    let inputs = inputs_block(args, &pool, &samples, wall, steal);
    Outcome {
        attempted: samples.len(),
        failed,
        errors,
        metrics,
        inputs,
    }
}

/// One span tree per request: the request, with client encode, round
/// trip and parse as its children. Built from the timestamps every
/// sample carries.
fn request_spans(samples: &[Sample]) -> Vec<Span> {
    let mut spans = Vec::with_capacity(samples.len() * 4);
    for s in samples {
        let root = spans.len();
        spans.push(Span {
            parent: None,
            name: "serve.request",
            start_ns: Some(s.start.as_nanos() as u64),
            dur_ns: s.service.as_nanos() as u64,
        });
        for (name, d) in [
            ("serve.codec", s.encode),
            ("serve.roundtrip", s.roundtrip),
            ("serve.codec", s.parse),
        ] {
            spans.push(Span {
                parent: Some(root),
                name,
                start_ns: None,
                dur_ns: d.as_nanos() as u64,
            });
        }
    }
    spans
}

/// The traced run: the same window, with one span tree per request. The
/// client takes the same timestamps with tracing on or off, so tracing
/// costs only the assembly of the spans; `trace.overhead_pct` is that
/// time over the requests' client time.
pub fn run_traced(args: &Args) -> Outcome {
    let (pool, server, _) = setup();
    let (traced, wall, steal) = window(args, &pool, &server);
    server.shutdown();
    let t = Instant::now();
    let spans = request_spans(&traced);
    let tracing = t.elapsed();

    let refs: Vec<&Sample> = traced.iter().collect();
    let (failed, mut errors) = check(&pool, &refs);
    let (layers, violations) = layer_totals(&spans);
    if !violations.is_empty() {
        errors.push(format!(
            "{} span(s) have children that sum to more than the span",
            violations.len()
        ));
    }
    if let Err(e) = crate::write_trace(args, &spans) {
        errors.push(format!("cannot write the trace: {e}"));
    }

    let n = traced.len().max(1) as f64;
    let served_pages: usize = traced
        .iter()
        .filter_map(|s| s.response.as_ref())
        .map(|r| r.pages)
        .sum();
    let of_kind = |kinds: &[&str]| {
        traced
            .iter()
            .filter(|s| {
                s.response
                    .as_ref()
                    .is_some_and(|r| kinds.contains(&r.cache.as_str()))
            })
            .map(|s| ms(s.service))
            .collect::<Vec<f64>>()
    };
    let warm = of_kind(&["warm"]);
    let codec_us = traced
        .iter()
        .map(|s| (s.encode + s.parse).as_secs_f64() * 1e6)
        .sum::<f64>()
        / n;
    let client: Duration = traced.iter().map(|s| s.service).sum();
    let overhead = tracing.as_secs_f64() / client.as_secs_f64().max(1e-9);
    let metrics = vec![
        Metric::single("serve.warm_ms", "ms", stats::median(&warm)),
        Metric::single(
            "serve.cold_ms",
            "ms",
            stats::median(&of_kind(&["cold", "rebuild"])),
        ),
        Metric::single(
            "serve.refresh_ms",
            "ms",
            stats::median(&of_kind(&["refresh"])),
        ),
        Metric::single("serve.hit_ratio", "ratio", warm.len() as f64 / n),
        Metric::single("serve.codec_us", "us", codec_us),
        Metric::single(
            "core.other_ms",
            "ms/page",
            layers.self_ms("serve.request") / served_pages.max(1) as f64,
        ),
        Metric::single("trace.overhead_pct", "%", overhead * 100.0),
    ];
    let mut inputs = inputs_block(args, &pool, &traced, wall, steal);
    inputs.push((
        "roundtrip_ms",
        stats::num(layers.self_ms("serve.roundtrip") / n),
    ));
    inputs.push(("span_assembly_ms", stats::num(ms(tracing))));
    inputs.push(("spans", spans.len().to_string()));
    Outcome {
        attempted: traced.len(),
        failed,
        errors,
        metrics,
        inputs,
    }
}
