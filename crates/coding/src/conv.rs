//! Convolutional K=7 rate-1/2 code with hard-decision Viterbi decoding.
//!
//! Generators 171/133 (octal) — the NASA-standard pair with free distance
//! 10. Each frame is zero-flushed with 6 tail bits so the trellis starts and
//! ends in state 0.
//!
//! The decoder runs the 64-state trellis as 32 radix-2 butterflies per
//! step: butterfly `j` joins predecessors `2j` and `2j + 1` to next-states
//! `j` (input 0) and `j + 32` (input 1). Every edge's Hamming branch cost
//! is looked up in a table built at compile time (`BRANCH_COST`), the
//! add-compare-select is straight-line integer arithmetic over fixed-size
//! arrays (no data-dependent branch, so the compiler vectorises it), and
//! each step's 64 survivor decisions are packed into one `u64` that the
//! traceback from the flushed end state reads with a shift and a mask.

use crate::{Codec, Decoded};

/// Constraint length (memory + 1).
pub const CONSTRAINT: usize = 7;

/// Zero tail bits flushed after the data to return the trellis to state 0.
pub const TAIL_BITS: usize = CONSTRAINT - 1;

/// Trellis states (2^(K-1)).
const STATES: usize = 1 << TAIL_BITS;

/// Generator polynomials, lowest bit = oldest register stage.
const G1: u8 = 0o171;
const G2: u8 = 0o133;

/// Butterflies per trellis step: one per pair of predecessor states.
const BUTTERFLIES: usize = STATES / 2;

/// Parity of the masked 7-bit register.
const fn parity7(x: u8) -> bool {
    (x & 0x7f).count_ones() % 2 == 1
}

/// The two output bits for register contents `reg` = input bit ‖ state.
const fn branch_bits(reg: u8) -> (bool, bool) {
    (parity7(reg & G1), parity7(reg & G2))
}

/// Path metric: the Hamming distance between a survivor path and the
/// received block. It grows by at most 2 per step, so it never exceeds
/// `coded.len()` and `u32` is exact for every block shorter than 2^32
/// coded bits (4 GiB of `bool`s) — there is no wrap at any length a caller
/// can allocate survivors for.
type Metric = u32;

/// Metric of a state no path has reached yet. Only the first [`TAIL_BITS`]
/// steps have such states (after them every state has a real predecessor),
/// so the sentinel accumulates at most `2 * TAIL_BITS` of branch cost: it
/// cannot overflow and stays above every real metric it is compared with,
/// which is what lets the kernel drop the reachability branch.
const UNREACHED: Metric = Metric::MAX / 2;

/// Index of a received symbol `(r0, r1)` into [`BRANCH_COST`].
const fn received_index(r0: bool, r1: bool) -> usize {
    r0 as usize | (r1 as usize) << 1
}

/// Index of a butterfly edge into [`BRANCH_COST`]: the input bit (which
/// next-state half) and the predecessor's low bit (even or odd).
const fn edge_index(input: bool, low: bool) -> usize {
    (input as usize) << 1 | low as usize
}

/// `BRANCH_COST[received][edge][j]`: bits in which the output of butterfly
/// `j`'s edge differs from the received symbol.
static BRANCH_COST: [[[Metric; BUTTERFLIES]; 4]; 4] = branch_costs();

const fn branch_costs() -> [[[Metric; BUTTERFLIES]; 4]; 4] {
    let mut table = [[[0; BUTTERFLIES]; 4]; 4];
    // `symbol` and `edge` count through `received_index` and `edge_index`.
    let mut symbol = 0;
    while symbol < 4 {
        let (r0, r1) = (symbol & 1 == 1, symbol >> 1 == 1);
        let mut edge = 0;
        while edge < 4 {
            let (input, low) = (edge >> 1, edge & 1);
            let mut j = 0;
            while j < BUTTERFLIES {
                let (a, b) = branch_bits((input << TAIL_BITS | j << 1 | low) as u8);
                table[symbol][edge][j] = (a != r0) as Metric + (b != r1) as Metric;
                j += 1;
            }
            edge += 1;
        }
        symbol += 1;
    }
    table
}

/// Packs 64 0/1 bytes into a word, byte `i` to bit `i`. Each multiply
/// gathers eight bytes' low bits into the product's top byte (the partial
/// products land on distinct bits, so nothing carries).
fn pack_decisions(decisions: &[u8; STATES]) -> u64 {
    let mut word = 0;
    for (k, lanes) in decisions.chunks_exact(8).enumerate() {
        let lanes = u64::from_le_bytes(lanes.try_into().expect("chunks of 8"));
        word |= (lanes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    word
}

/// Convolutional K=7 rate-1/2 codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConvCodec;

impl Codec for ConvCodec {
    fn name(&self) -> &'static str {
        "conv"
    }

    fn data_granule(&self) -> usize {
        1
    }

    fn encoded_len(&self, data_bits: usize) -> usize {
        (data_bits + TAIL_BITS) * 2
    }

    fn data_len(&self, coded_bits: usize) -> Option<usize> {
        if coded_bits % 2 != 0 {
            return None;
        }
        (coded_bits / 2).checked_sub(TAIL_BITS).filter(|&d| d > 0)
    }

    fn encode(&self, data: &[bool]) -> Vec<bool> {
        let mut out = Vec::with_capacity((data.len() + TAIL_BITS) * 2);
        let mut state = 0u8;
        for &bit in data.iter().chain(std::iter::repeat(&false).take(TAIL_BITS)) {
            let reg = ((bit as u8) << TAIL_BITS) | state;
            let (a, b) = branch_bits(reg);
            out.push(a);
            out.push(b);
            state = reg >> 1;
        }
        out
    }

    fn decode(&self, coded: &[bool]) -> Decoded {
        let Some(data_bits) = self.data_len(coded.len()) else {
            return Decoded {
                bits: Vec::new(),
                corrected: 0,
                failed: true,
            };
        };
        let mut metric = [UNREACHED; STATES];
        metric[0] = 0;
        // One word per step: bit `ns` is the low bit of the predecessor that
        // won next-state `ns`. The odd predecessor wins only on a strictly
        // smaller cost.
        let mut survivors = vec![0u64; coded.len() / 2];
        for (received, word) in coded.chunks_exact(2).zip(&mut survivors) {
            let cost = &BRANCH_COST[received_index(received[0], received[1])];
            let mut even = [0; BUTTERFLIES];
            let mut odd = [0; BUTTERFLIES];
            for j in 0..BUTTERFLIES {
                even[j] = metric[2 * j];
                odd[j] = metric[2 * j + 1];
            }
            let mut decisions = [0u8; STATES];
            for j in 0..BUTTERFLIES {
                for input in [false, true] {
                    let from_even = even[j] + cost[edge_index(input, false)][j];
                    let from_odd = odd[j] + cost[edge_index(input, true)][j];
                    let ns = j + input as usize * BUTTERFLIES;
                    metric[ns] = from_even.min(from_odd);
                    decisions[ns] = (from_odd < from_even) as u8;
                }
            }
            *word = pack_decisions(&decisions);
        }
        // State 0 always has the reachable predecessor state 0, so the zero
        // flush's end state is reached on every input.
        debug_assert!(metric[0] < UNREACHED);
        let mut bits = vec![false; survivors.len()];
        let mut state = 0usize;
        for (bit, word) in bits.iter_mut().zip(&survivors).rev() {
            *bit = state >> (TAIL_BITS - 1) == 1;
            let low = (word >> state) as usize & 1;
            state = (state << 1) & (STATES - 1) | low;
        }
        bits.truncate(data_bits);
        Decoded {
            corrected: metric[0] as usize,
            bits,
            failed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The scalar per-state trellis this module decoded with before the
    /// butterfly kernel, kept verbatim as the oracle the kernel must match
    /// on the whole `Decoded`.
    fn reference_decode(coded: &[bool]) -> Decoded {
        let Some(data_bits) = ConvCodec.data_len(coded.len()) else {
            return Decoded {
                bits: Vec::new(),
                corrected: 0,
                failed: true,
            };
        };
        let steps = coded.len() / 2;
        const INF: u32 = u32::MAX / 2;
        let mut metric = [INF; STATES];
        metric[0] = 0;
        // survivors[t][next_state] = low bit of the winning predecessor.
        let mut survivors = vec![[false; STATES]; steps];
        for (t, decisions) in survivors.iter_mut().enumerate() {
            let (r0, r1) = (coded[2 * t], coded[2 * t + 1]);
            let mut next = [INF; STATES];
            for (ns, slot) in next.iter_mut().enumerate() {
                let input = (ns >> (TAIL_BITS - 1)) as u8;
                let pred_base = (ns & (STATES / 2 - 1)) << 1;
                let mut best = INF;
                let mut best_low = false;
                for low in [false, true] {
                    let pred = pred_base | low as usize;
                    if metric[pred] >= INF {
                        continue;
                    }
                    let reg = (input << TAIL_BITS) | pred as u8;
                    let (a, b) = branch_bits(reg);
                    let cost = metric[pred] + (a != r0) as u32 + (b != r1) as u32;
                    if cost < best {
                        best = cost;
                        best_low = low;
                    }
                }
                *slot = best;
                decisions[ns] = best_low;
            }
            metric = next;
        }
        // The zero flush pins the end state; if nothing reached it the
        // stream is structurally broken.
        if metric[0] >= INF {
            return Decoded {
                bits: Vec::new(),
                corrected: 0,
                failed: true,
            };
        }
        let mut bits = vec![false; steps];
        let mut state = 0usize;
        for t in (0..steps).rev() {
            bits[t] = state >> (TAIL_BITS - 1) == 1;
            let low = survivors[t][state];
            state = ((state & (STATES / 2 - 1)) << 1) | low as usize;
        }
        bits.truncate(data_bits);
        Decoded {
            corrected: metric[0] as usize,
            bits,
            failed: false,
        }
    }

    fn random_bits(rng: &mut StdRng, len: usize) -> Vec<bool> {
        (0..len).map(|_| rng.gen_bool(0.5)).collect()
    }

    fn flip_at_rate(rng: &mut StdRng, coded: &mut [bool], ber: f64) {
        for bit in coded.iter_mut() {
            *bit ^= rng.gen_bool(ber);
        }
    }

    #[test]
    fn kernel_matches_the_scalar_oracle_on_random_blocks() {
        // BER 0.5 rows are pure noise: metric ties on nearly every step.
        let mut rng = StdRng::seed_from_u64(15);
        for data_bits in 1..=300 {
            for ber in [0.0, 0.01, 0.05, 0.2, 0.5] {
                for _ in 0..7 {
                    let mut coded = ConvCodec.encode(&random_bits(&mut rng, data_bits));
                    flip_at_rate(&mut rng, &mut coded, ber);
                    assert_eq!(
                        ConvCodec.decode(&coded),
                        reference_decode(&coded),
                        "{data_bits} data bits at BER {ber}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_matches_the_scalar_oracle_on_fixed_blocks() {
        let mut blocks = vec![
            vec![false; 108],
            vec![true; 108],
            (0..108).map(|i| i % 2 == 0).collect(),
            (0..108).map(|i| i % 2 == 1).collect(),
        ];
        // One flip in each of the first and last 14 coded bits: the steps
        // where states are still unreachable, and the zero-flush tail.
        let clean = ConvCodec.encode(&(0..48).map(|i| i % 5 < 2).collect::<Vec<_>>());
        for pos in (0..14).chain(clean.len() - 14..clean.len()) {
            let mut noisy = clean.clone();
            noisy[pos] ^= true;
            blocks.push(noisy);
        }
        // Ragged lengths: odd, and too short to hold a data bit.
        blocks.push(vec![true; 13]);
        blocks.push(vec![true; 12]);
        for coded in &blocks {
            assert_eq!(ConvCodec.decode(coded), reference_decode(coded));
        }
        for ragged in &blocks[blocks.len() - 2..] {
            let decoded = ConvCodec.decode(ragged);
            assert!(decoded.failed && decoded.bits.is_empty());
        }
    }

    #[test]
    fn long_noisy_block_does_not_wrap_the_metric() {
        // 300 000 steps of pure noise cost about an eighth of a bit per
        // coded bit, so the path metric passes 2^16: a `Metric` narrower
        // than `u32` (without renormalising) diverges from the oracle here.
        let mut rng = StdRng::seed_from_u64(600_000);
        let coded = random_bits(&mut rng, 600_000);
        let decoded = ConvCodec.decode(&coded);
        let reference = reference_decode(&coded);
        assert!(decoded.corrected > 1 << 16, "{}", decoded.corrected);
        assert_eq!(decoded.corrected, reference.corrected);
        assert_eq!(decoded.bits, reference.bits);
    }

    #[test]
    fn branch_cost_table_matches_branch_bits_on_every_edge() {
        for (r0, r1) in [(false, false), (true, false), (false, true), (true, true)] {
            for input in [false, true] {
                for pred in 0..STATES {
                    let (a, b) = branch_bits((input as u8) << TAIL_BITS | pred as u8);
                    let cost = BRANCH_COST[received_index(r0, r1)]
                        [edge_index(input, pred % 2 == 1)][pred / 2];
                    assert_eq!(cost, (a ^ r0) as Metric + (b ^ r1) as Metric);
                }
            }
        }
    }

    #[test]
    fn decisions_pack_byte_i_to_bit_i() {
        for word in [
            0,
            u64::MAX,
            1,
            1 << 63,
            0x8000_0001_0180_8001,
            0x0123_4567_89ab_cdef,
        ] {
            let decisions: [u8; STATES] = std::array::from_fn(|i| (word >> i) as u8 & 1);
            assert_eq!(pack_decisions(&decisions), word);
        }
    }

    #[test]
    fn clean_round_trip() {
        let codec = ConvCodec;
        let data: Vec<bool> = (0..75).map(|i| i % 3 == 1).collect();
        let coded = codec.encode(&data);
        assert_eq!(coded.len(), codec.encoded_len(data.len()));
        let decoded = codec.decode(&coded);
        assert_eq!(decoded.bits, data);
        assert_eq!(decoded.corrected, 0);
        assert!(!decoded.failed);
    }

    #[test]
    fn corrects_scattered_errors() {
        // Free distance 10: any 4 errors spaced apart decode correctly.
        let codec = ConvCodec;
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<bool> = (0..120).map(|_| rng.gen_bool(0.5)).collect();
        let clean = codec.encode(&data);
        for trial in 0..200 {
            let mut noisy = clean.clone();
            // Four isolated flips, each in its own 40-bit window.
            for w in 0..4 {
                let pos = w * 60 + rng.gen_range(0usize..40);
                noisy[pos] = !noisy[pos];
            }
            let decoded = codec.decode(&noisy);
            assert_eq!(decoded.bits, data, "trial {trial}");
            assert_eq!(decoded.corrected, 4);
        }
    }

    #[test]
    fn one_percent_random_ber_decodes_clean() {
        let codec = ConvCodec;
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<bool> = (0..200).map(|_| rng.gen_bool(0.5)).collect();
        let clean = codec.encode(&data);
        let mut exact = 0;
        for _ in 0..100 {
            let mut noisy = clean.clone();
            for bit in noisy.iter_mut() {
                if rng.gen_bool(0.01) {
                    *bit = !*bit;
                }
            }
            if codec.decode(&noisy).bits == data {
                exact += 1;
            }
        }
        assert!(exact >= 97, "only {exact}/100 frames survived 1% BER");
    }

    #[test]
    fn rejects_ragged_lengths() {
        assert!(ConvCodec.decode(&[true; 13]).failed);
        assert_eq!(ConvCodec.data_len(12), None); // would leave zero data bits
        assert_eq!(ConvCodec.data_len(14), Some(1));
    }
}
