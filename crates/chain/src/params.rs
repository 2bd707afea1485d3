//! Per-chain configuration parameters.
//!
//! The paper's evaluation (Section 6) characterises each permissionless
//! blockchain by a handful of numbers: its throughput in transactions per
//! second (Table 1), its block interval (`dh` blocks per hour in Section
//! 6.3), its fee schedule (`fd`, `ffc` in Section 6.2) and the confirmation
//! depth `d` after which forks are considered negligible. [`ChainParams`]
//! bundles exactly those knobs, with presets mirroring the paper's Table 1
//! cryptocurrencies.

use crate::types::Amount;
use ac3_crypto::Hash256;
use serde::{Deserialize, Serialize};

/// How blocks are sealed by the simulated miners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SealPolicy {
    /// Perform a bounded nonce search against the difficulty target, like a
    /// real proof-of-work miner (used by PoW-focused tests and benches).
    ProofOfWork {
        /// Number of leading zero bits the block hash must have.
        difficulty_bits: u32,
    },
    /// Seal instantly without searching. Block production timing is governed
    /// entirely by the simulated block interval; used for protocol-level
    /// simulations where PoW cycles are irrelevant.
    Instant,
}

impl SealPolicy {
    /// The proof-of-work target corresponding to this policy.
    pub fn target(&self) -> Hash256 {
        match self {
            SealPolicy::Instant => Hash256::MAX,
            SealPolicy::ProofOfWork { difficulty_bits } => {
                let mut bytes = [0xffu8; 32];
                let full_bytes = (*difficulty_bits / 8) as usize;
                let rem_bits = *difficulty_bits % 8;
                for b in bytes.iter_mut().take(full_bytes.min(32)) {
                    *b = 0;
                }
                if full_bytes < 32 && rem_bits > 0 {
                    bytes[full_bytes] = 0xff >> rem_bits;
                }
                Hash256::from_bytes(bytes)
            }
        }
    }
}

/// The dynamic per-block base-fee schedule (EIP-1559-style): the minimum
/// fee the mempool admits, updated on every accepted canonical block from
/// the *parent* block's fullness. Sustained demand above the target
/// utilisation raises the price of block space even while the mempool has
/// room; when demand stops the base fee decays back to the floor.
///
/// The update rule is pure integer arithmetic over
/// `(current, used, budget)` — see [`BaseFeeSchedule::next`] — so the base
/// fee is a deterministic function of the canonical chain and is replayed
/// identically across reorgs (it lives in
/// [`crate::chain::ChainState`], covered by the incremental-state
/// differential oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaseFeeSchedule {
    /// The base fee never drops below this floor (and starts there).
    pub floor: Amount,
    /// Target block utilisation in percent of the per-block transaction
    /// budget. Blocks fuller than the target raise the base fee, emptier
    /// blocks lower it. Clamped so the target is at least one transaction —
    /// a budget-1 chain has no headroom above target, so its base fee can
    /// only decay (dynamic pricing needs a budget of at least 2).
    pub target_utilisation_pct: u32,
    /// Maximum per-block adjustment in percent of the current base fee
    /// (both directions). `0` disables the dynamics entirely: the base fee
    /// is pinned (at the floor) and never moves. Off-target blocks always
    /// move the fee by at least 1 unit, so small fees still adjust.
    pub max_change_pct: u32,
}

impl BaseFeeSchedule {
    /// A static schedule: base fee pinned at 0, never moving — the paper's
    /// fixed fd/ffc fee world. The default for every preset.
    pub const fn disabled() -> Self {
        BaseFeeSchedule { floor: 0, target_utilisation_pct: 50, max_change_pct: 0 }
    }

    /// An EIP-1559-like schedule: floor 1, 50% target utilisation, at most
    /// ~1/8 (13%) adjustment per block.
    pub const fn eip1559_like() -> Self {
        BaseFeeSchedule { floor: 1, target_utilisation_pct: 50, max_change_pct: 13 }
    }

    /// The target transaction count for a block with `budget` slots.
    pub fn target_txs(&self, budget: usize) -> usize {
        let budget = budget.max(1);
        (budget * self.target_utilisation_pct as usize / 100).clamp(1, budget)
    }

    /// The largest single-block movement allowed from `current`:
    /// `max_change_pct` percent of it, but at least 1 so small fees can
    /// still adjust.
    pub fn max_step(&self, current: Amount) -> Amount {
        Self::narrow(current as u128 * self.max_change_pct as u128 / 100).max(1)
    }

    /// Saturating u128 → [`Amount`] narrowing: schedules with a
    /// `max_change_pct` above 100 on astronomically large fees must
    /// saturate, not wrap.
    fn narrow(value: u128) -> Amount {
        Amount::try_from(value).unwrap_or(Amount::MAX)
    }

    /// The base fee of the block after one whose `used` non-coinbase
    /// transaction slots are measured against a `budget`-slot block.
    ///
    /// Movement is proportional to the distance from the target (like
    /// EIP-1559's `base * excess / target / 8`), clamped to
    /// [`BaseFeeSchedule::max_step`] and floored at
    /// [`BaseFeeSchedule::floor`].
    pub fn next(&self, current: Amount, used: usize, budget: usize) -> Amount {
        let current = current.max(self.floor);
        if self.max_change_pct == 0 {
            return current;
        }
        let budget = budget.max(1);
        let target = self.target_txs(budget);
        let max_step = self.max_step(current);
        if used > target {
            let excess = (used - target) as u128;
            let span = (budget - target).max(1) as u128;
            let delta =
                Self::narrow(current as u128 * self.max_change_pct as u128 * excess / (span * 100));
            current.saturating_add(delta.clamp(1, max_step))
        } else if used < target {
            let shortfall = (target - used) as u128;
            let delta = Self::narrow(
                current as u128 * self.max_change_pct as u128 * shortfall / (target as u128 * 100),
            );
            current.saturating_sub(delta.clamp(1, max_step).min(current)).max(self.floor)
        } else {
            current
        }
    }
}

impl Default for BaseFeeSchedule {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Configuration of one simulated blockchain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainParams {
    /// Human-readable name ("Bitcoin", "Ethereum", "Witness", ...).
    pub name: String,
    /// Average block interval in simulated milliseconds.
    pub block_interval_ms: u64,
    /// Maximum sustained throughput in transactions per second (Table 1).
    /// Together with the block interval this caps the number of
    /// transactions per block.
    pub tps: u64,
    /// Smart-contract deployment fee `fd` (Section 6.2), in asset units.
    pub deploy_fee: Amount,
    /// Smart-contract function-call fee `ffc` (Section 6.2), in asset units.
    pub call_fee: Amount,
    /// Plain transfer fee.
    pub transfer_fee: Amount,
    /// Block reward paid to the miner via the coinbase transaction.
    pub block_reward: Amount,
    /// The number of confirmations after which a block is considered stable
    /// (`d`; e.g. 6 for Bitcoin, Section 4.2/6.3).
    pub stable_depth: u64,
    /// Maximum number of transactions the mempool holds. Submissions to a
    /// full pool must outbid the cheapest evictable pending transaction
    /// (fee-based eviction) or they are rejected — the supply side of the
    /// fee market.
    pub mempool_capacity: usize,
    /// The dynamic per-block base-fee schedule: the miner-side half of the
    /// fee market. [`BaseFeeSchedule::disabled`] (the preset default)
    /// reproduces the paper's static fee world exactly.
    pub base_fee_schedule: BaseFeeSchedule,
    /// How blocks are sealed.
    pub seal: SealPolicy,
}

impl ChainParams {
    /// Maximum number of non-coinbase transactions allowed per block,
    /// derived from the tps cap and the block interval.
    pub fn max_txs_per_block(&self) -> usize {
        let per_block = (self.tps as u128 * self.block_interval_ms as u128) / 1000;
        (per_block.max(1)) as usize
    }

    /// Expected blocks per hour (`dh` in the Section 6.3 inequality).
    pub fn blocks_per_hour(&self) -> f64 {
        3_600_000.0 / self.block_interval_ms as f64
    }

    /// The PoW target for this chain.
    pub fn target(&self) -> Hash256 {
        self.seal.target()
    }

    /// A generic test chain: instant sealing, generous throughput.
    pub fn test(name: &str) -> Self {
        ChainParams {
            name: name.to_string(),
            block_interval_ms: 1_000,
            tps: 1_000,
            deploy_fee: 4,
            call_fee: 2,
            transfer_fee: 1,
            block_reward: 50,
            stable_depth: 6,
            mempool_capacity: 100_000,
            base_fee_schedule: BaseFeeSchedule::disabled(),
            seal: SealPolicy::Instant,
        }
    }

    /// A fast test chain for concurrent-scheduler workloads: 1-second
    /// blocks, stability after 3 confirmations (Δ = 4 s), with an explicit
    /// tps cap so one chain can be made the contention bottleneck. The
    /// scheduler tests and the Section 5.2 / 6.4 bench binaries share this
    /// shape; change it here, not in per-binary copies.
    pub fn fast(name: &str, tps: u64) -> Self {
        let mut p = ChainParams::test(name);
        p.block_interval_ms = 1_000;
        p.stable_depth = 3;
        p.tps = tps;
        p
    }

    /// The same parameters with a dynamic base-fee schedule — the opt-in
    /// for the miner-side fee market (presets default to
    /// [`BaseFeeSchedule::disabled`], the paper's static fee world).
    pub fn with_base_fee(mut self, schedule: BaseFeeSchedule) -> Self {
        self.base_fee_schedule = schedule;
        self
    }

    /// Bitcoin-like parameters (Table 1: 7 tps; 6 blocks/hour; d = 6).
    pub fn bitcoin_like() -> Self {
        ChainParams {
            name: "Bitcoin".to_string(),
            block_interval_ms: 600_000,
            tps: 7,
            deploy_fee: 4,
            call_fee: 2,
            transfer_fee: 1,
            block_reward: 625,
            stable_depth: 6,
            mempool_capacity: 100_000,
            base_fee_schedule: BaseFeeSchedule::disabled(),
            seal: SealPolicy::Instant,
        }
    }

    /// Ethereum-like parameters (Table 1: 25 tps).
    pub fn ethereum_like() -> Self {
        ChainParams {
            name: "Ethereum".to_string(),
            block_interval_ms: 15_000,
            tps: 25,
            deploy_fee: 4,
            call_fee: 2,
            transfer_fee: 1,
            block_reward: 2,
            stable_depth: 12,
            mempool_capacity: 100_000,
            base_fee_schedule: BaseFeeSchedule::disabled(),
            seal: SealPolicy::Instant,
        }
    }

    /// Litecoin-like parameters (Table 1: 56 tps).
    pub fn litecoin_like() -> Self {
        ChainParams {
            name: "Litecoin".to_string(),
            block_interval_ms: 150_000,
            tps: 56,
            deploy_fee: 4,
            call_fee: 2,
            transfer_fee: 1,
            block_reward: 12,
            stable_depth: 6,
            mempool_capacity: 100_000,
            base_fee_schedule: BaseFeeSchedule::disabled(),
            seal: SealPolicy::Instant,
        }
    }

    /// Bitcoin-Cash-like parameters (Table 1: 61 tps).
    pub fn bitcoin_cash_like() -> Self {
        ChainParams {
            name: "BitcoinCash".to_string(),
            block_interval_ms: 600_000,
            tps: 61,
            deploy_fee: 4,
            call_fee: 2,
            transfer_fee: 1,
            block_reward: 625,
            stable_depth: 6,
            mempool_capacity: 100_000,
            base_fee_schedule: BaseFeeSchedule::disabled(),
            seal: SealPolicy::Instant,
        }
    }

    /// The paper's Table 1, in market-cap order.
    pub fn table1() -> Vec<ChainParams> {
        vec![
            Self::bitcoin_like(),
            Self::ethereum_like(),
            Self::litecoin_like(),
            Self::bitcoin_cash_like(),
        ]
    }
}

impl Default for ChainParams {
    fn default() -> Self {
        Self::test("test-chain")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_txs_per_block_respects_tps() {
        let btc = ChainParams::bitcoin_like();
        // 7 tps * 600 s = 4200 txs per block.
        assert_eq!(btc.max_txs_per_block(), 4200);
        let eth = ChainParams::ethereum_like();
        // 25 tps * 15 s = 375 txs per block.
        assert_eq!(eth.max_txs_per_block(), 375);
    }

    #[test]
    fn max_txs_never_zero() {
        let mut p = ChainParams::test("tiny");
        p.tps = 1;
        p.block_interval_ms = 1;
        assert!(p.max_txs_per_block() >= 1);
    }

    #[test]
    fn blocks_per_hour_matches_paper_bitcoin() {
        let btc = ChainParams::bitcoin_like();
        assert!((btc.blocks_per_hour() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn table1_matches_paper_throughputs() {
        let tps: Vec<u64> = ChainParams::table1().iter().map(|c| c.tps).collect();
        assert_eq!(tps, vec![7, 25, 56, 61]);
    }

    #[test]
    fn pow_target_has_requested_leading_zeros() {
        let t = SealPolicy::ProofOfWork { difficulty_bits: 12 }.target();
        assert_eq!(t.leading_zero_bits(), 12);
        let instant = SealPolicy::Instant.target();
        assert_eq!(instant, Hash256::MAX);
    }

    #[test]
    fn pow_target_handles_byte_aligned_difficulty() {
        let t = SealPolicy::ProofOfWork { difficulty_bits: 16 }.target();
        assert_eq!(t.leading_zero_bits(), 16);
    }

    #[test]
    fn disabled_schedule_never_moves() {
        let s = BaseFeeSchedule::disabled();
        for used in 0..10 {
            assert_eq!(s.next(0, used, 4), 0);
            assert_eq!(s.next(7, used, 4), 7, "a pinned base fee never moves");
        }
    }

    #[test]
    fn full_blocks_raise_and_empty_blocks_lower_the_base_fee() {
        let s = BaseFeeSchedule::eip1559_like();
        let budget = 8; // target 4
        assert_eq!(s.target_txs(budget), 4);
        // At target: unchanged. Above: rises. Below: falls, never under the
        // floor.
        assert_eq!(s.next(100, 4, budget), 100);
        assert!(s.next(100, 8, budget) > 100);
        assert!(s.next(100, 0, budget) < 100);
        assert_eq!(s.next(1, 0, budget), 1, "floor holds");
        // Small fees still move by at least one unit in both directions.
        assert_eq!(s.next(1, 8, budget), 2);
        assert_eq!(s.next(3, 0, budget), 2);
    }

    #[test]
    fn base_fee_movement_is_bounded_by_max_step() {
        let s = BaseFeeSchedule { floor: 1, target_utilisation_pct: 50, max_change_pct: 13 };
        for current in [1u64, 7, 100, 10_000, u64::MAX / 2] {
            let bound = s.max_step(current);
            for used in 0..=12usize {
                let next = s.next(current, used, 12);
                assert!(next >= s.floor);
                assert!(
                    next.abs_diff(current) <= bound,
                    "base fee moved {current} -> {next}, beyond max step {bound}"
                );
            }
        }
    }

    #[test]
    fn budget_one_chains_cannot_rise_above_target() {
        // target_txs clamps to at least 1, so a 1-slot block is never
        // *above* target: the base fee can only decay on such chains.
        let s = BaseFeeSchedule::eip1559_like();
        assert_eq!(s.target_txs(1), 1);
        assert_eq!(s.next(10, 1, 1), 10);
        assert_eq!(s.next(10, 0, 1), 9);
    }

    #[test]
    fn uninitialised_base_fee_snaps_to_the_floor() {
        let s = BaseFeeSchedule { floor: 5, target_utilisation_pct: 50, max_change_pct: 13 };
        assert_eq!(s.next(0, 0, 4), 5, "pre-genesis 0 is clamped to the floor");
    }

    #[test]
    fn oversized_adjustments_saturate_instead_of_wrapping() {
        // max_change_pct > 100 on an astronomically large fee must not
        // truncate the u128 intermediate back into u64 (which would turn a
        // doubling schedule into a ±1 crawl).
        let s = BaseFeeSchedule { floor: 1, target_utilisation_pct: 50, max_change_pct: 200 };
        let huge = 1u64 << 63;
        assert_eq!(s.max_step(huge), Amount::MAX, "2^63 × 200% saturates");
        let next = s.next(huge, 4, 4);
        assert!(next >= huge, "a full block still raises the fee");
        assert!(s.next(huge, 0, 4) < huge, "an empty block still lowers it");
    }
}
