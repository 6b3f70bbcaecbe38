//! Party-runtime throughput of the two primitives everything else is built
//! from, as real message rounds on a 3-party channel mesh:
//!
//! * `open`: secret-share a column and open it again (one input round, one
//!   broadcast round), and
//! * `multiply`: a batch of Beaver multiplications (one `d`/`e` opening
//!   round) opened afterwards.
//!
//! There is no in-process series beside them: the `Protocol` engine computes
//! in the clear and only counts, so it has no share exchange to price these
//! rounds against.

use conclave_mpc::runtime::{PartyResult, PartySession, StepCtx};
use conclave_mpc::AuthShare;
use conclave_net::ChannelTransport;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const SIZES: [usize; 2] = [1_000, 10_000];
const PARTIES: u32 = 3;

fn values(n: usize) -> Vec<i64> {
    (0..n as i64)
        .map(|i| i.wrapping_mul(37) % 100_000)
        .collect()
}

/// Runs one per-party program on a fresh channel mesh and returns party 0's
/// result.
fn on_mesh<R, F>(f: F) -> R
where
    R: Send,
    F: Fn(&mut StepCtx) -> PartyResult<R> + Sync,
{
    let mesh = ChannelTransport::mesh(PARTIES);
    std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|t| {
                let f = &f;
                s.spawn(move || {
                    let mut sess = PartySession::new(&t, 1);
                    let mut proto = sess.step(0);
                    f(&mut proto)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("party panicked").expect("party failed"))
            .next()
            .expect("at least one party")
    })
}

fn bench_open(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_open");
    group.sample_size(10);
    for n in SIZES {
        let vals = values(n);
        group.bench_with_input(BenchmarkId::new("channel_mesh", n), &vals, |b, vals| {
            b.iter(|| {
                on_mesh(|proto| {
                    let own = (proto.party() == 0).then_some(vals.as_slice());
                    let shares = proto.input_column(0, own, vals.len())?;
                    let opened = proto.open_column(&shares)?;
                    Ok(opened.iter().sum::<i64>())
                })
            })
        });
    }
    group.finish();
}

fn bench_multiply(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_multiply");
    group.sample_size(10);
    for n in SIZES {
        let vals = values(n);
        group.bench_with_input(BenchmarkId::new("channel_mesh", n), &vals, |b, vals| {
            b.iter(|| {
                on_mesh(|proto| {
                    let own = (proto.party() == 0).then_some(vals.as_slice());
                    let shares = proto.input_column(0, own, vals.len())?;
                    let pairs: Vec<(AuthShare, AuthShare)> = shares
                        .chunks(2)
                        .filter_map(|c| match c {
                            [x, y] => Some((*x, *y)),
                            _ => None,
                        })
                        .collect();
                    let products = proto.mul_batch(&pairs)?;
                    let opened = proto.open_column(&products)?;
                    Ok(opened.iter().fold(0i64, |a, &v| a.wrapping_add(v)))
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_open, bench_multiply);
criterion_main!(benches);
