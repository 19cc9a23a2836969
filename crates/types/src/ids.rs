//! Typed identifiers for the CENT hardware hierarchy.
//!
//! The hierarchy, following Figures 4, 5 and 7 of the paper:
//!
//! ```text
//! System ─ 1..=4096 CXL devices (DeviceId)
//!   Device ─ 16 memory chips × 2 GDDR6-PIM channels = 32 channels (ChannelId)
//!     Channel ─ 4 bank groups (BankGroupId) × 4 banks = 16 banks (BankId)
//!       Bank ─ rows (RowAddr) × 32-byte columns (ColAddr)
//! ```
//!
//! Using newtypes prevents e.g. passing a bank index where a channel index is
//! expected — a real hazard in a simulator full of small integers.

use core::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u16);

        impl $name {
            /// Creates a new identifier from a raw index.
            #[inline]
            pub const fn new(index: u16) -> Self {
                Self(index)
            }

            /// Returns the raw index.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u16> for $name {
            fn from(v: u16) -> Self {
                Self(v)
            }
        }

        impl From<$name> for u16 {
            fn from(v: $name) -> u16 {
                v.0
            }
        }
    };
}

id_type!(
    /// Identifies one CXL device attached to the switch (`DVid` in the ISA).
    DeviceId,
    "DV"
);
id_type!(
    /// Identifies one GDDR6-PIM channel within a device (`CHid` in the ISA).
    ChannelId,
    "CH"
);
id_type!(
    /// Identifies one of the four bank groups within a channel.
    BankGroupId,
    "BG"
);
id_type!(
    /// Identifies one of the 16 banks within a channel (`BK` in the ISA).
    BankId,
    "BK"
);

impl BankId {
    /// The bank group this bank belongs to (4 banks per group).
    #[inline]
    pub const fn bank_group(self) -> BankGroupId {
        BankGroupId(self.0 / 4)
    }

    /// Index of this bank within its bank group (0..4).
    #[inline]
    pub const fn index_in_group(self) -> u16 {
        self.0 % 4
    }

    /// The neighbouring bank whose local bus is shared with this bank's PU.
    ///
    /// Per Figure 7(a), each multiplier can take its second operand from the
    /// neighbouring bank (bank pairs 0-1, 2-3, ...). This is used by vector
    /// dot products (§5.4(b)).
    #[inline]
    pub const fn neighbour(self) -> BankId {
        BankId(self.0 ^ 1)
    }
}

/// A DRAM row address within a bank (`RO` in the ISA).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowAddr(pub u32);

impl RowAddr {
    /// Creates a row address.
    #[inline]
    pub const fn new(row: u32) -> Self {
        Self(row)
    }

    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The row immediately after this one.
    #[inline]
    pub const fn next(self) -> RowAddr {
        RowAddr(self.0 + 1)
    }
}

impl fmt::Debug for RowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RO{}", self.0)
    }
}

impl fmt::Display for RowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RO{}", self.0)
    }
}

/// A 32-byte (256-bit) column address within a row (`CO` in the ISA).
///
/// All PIM datapaths in the paper move 256-bit beats: the MAC units consume
/// 256 bits per command, the Global Buffer broadcasts 256 bits, and the
/// Shared Buffer is viewed as 256-bit registers.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColAddr(pub u32);

impl ColAddr {
    /// Creates a column address.
    #[inline]
    pub const fn new(col: u32) -> Self {
        Self(col)
    }

    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Column `n` beats after this one.
    #[inline]
    pub const fn offset(self, n: u32) -> ColAddr {
        ColAddr(self.0 + n)
    }
}

impl fmt::Debug for ColAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CO{}", self.0)
    }
}

impl fmt::Display for ColAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CO{}", self.0)
    }
}

/// A bitmask selecting a subset of the 32 PIM channels in one device
/// (`CHmask` in the ISA). The PIM decoder broadcasts micro-ops to every
/// channel whose bit is set.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ChannelMask(pub u32);

impl ChannelMask {
    /// Mask selecting no channels.
    pub const EMPTY: ChannelMask = ChannelMask(0);
    /// Mask selecting all 32 channels of a device.
    pub const ALL: ChannelMask = ChannelMask(u32::MAX);

    /// Mask with a single channel selected.
    #[inline]
    pub const fn single(ch: ChannelId) -> Self {
        ChannelMask(1 << ch.0)
    }

    /// Mask selecting channels `[start, start + count)`.
    #[inline]
    pub fn range(start: u16, count: u16) -> Self {
        let mut m = 0u32;
        for ch in start..start + count {
            m |= 1 << ch;
        }
        ChannelMask(m)
    }

    /// Whether channel `ch` is selected.
    #[inline]
    pub const fn contains(self, ch: ChannelId) -> bool {
        self.0 & (1 << ch.0) != 0
    }

    /// Number of selected channels.
    #[inline]
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the mask selects no channel.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the selected channels in ascending order.
    pub fn iter(self) -> impl Iterator<Item = ChannelId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let lowest = bits.trailing_zeros() as u16;
            bits &= bits - 1;
            Some(ChannelId(lowest))
        })
    }

    /// Union of two masks.
    #[inline]
    pub const fn union(self, other: ChannelMask) -> ChannelMask {
        ChannelMask(self.0 | other.0)
    }
}

impl fmt::Debug for ChannelMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CHmask({:#010x})", self.0)
    }
}

impl FromIterator<ChannelId> for ChannelMask {
    fn from_iter<T: IntoIterator<Item = ChannelId>>(iter: T) -> Self {
        let mut mask = ChannelMask::EMPTY;
        for ch in iter {
            mask.0 |= 1 << ch.0;
        }
        mask
    }
}

/// Identifies one of the 32 accumulation registers inside a near-bank PU
/// (`Regid` in the ISA).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccRegId(pub u8);

impl AccRegId {
    /// Creates an accumulation-register id.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32` — the PU has exactly 32 accumulation registers.
    #[inline]
    pub fn new(index: u8) -> Self {
        assert!(index < 32, "PU has 32 accumulation registers, got {index}");
        Self(index)
    }

    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AccRegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ACC{}", self.0)
    }
}

/// A 256-bit slot in the 64 KB Shared Buffer, as seen by PIM channels and PNM
/// units (`Rd`/`Rs` in the ISA). There are 2048 slots (64 KiB / 32 B).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SbSlot(pub u16);

impl SbSlot {
    /// Creates a shared-buffer slot index.
    #[inline]
    pub const fn new(slot: u16) -> Self {
        Self(slot)
    }

    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Slot `n` positions after this one (micro-op expansion walks slots).
    #[inline]
    pub const fn offset(self, n: u16) -> SbSlot {
        SbSlot(self.0 + n)
    }

    /// Byte address of this slot in the RISC-V view of the Shared Buffer.
    #[inline]
    pub const fn byte_addr(self) -> u32 {
        (self.0 as u32) * 32
    }
}

impl fmt::Debug for SbSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SB[{}]", self.0)
    }
}

impl fmt::Display for SbSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SB[{}]", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_group_mapping() {
        assert_eq!(BankId(0).bank_group(), BankGroupId(0));
        assert_eq!(BankId(3).bank_group(), BankGroupId(0));
        assert_eq!(BankId(4).bank_group(), BankGroupId(1));
        assert_eq!(BankId(15).bank_group(), BankGroupId(3));
        assert_eq!(BankId(6).index_in_group(), 2);
    }

    #[test]
    fn bank_neighbour_pairs() {
        assert_eq!(BankId(0).neighbour(), BankId(1));
        assert_eq!(BankId(1).neighbour(), BankId(0));
        assert_eq!(BankId(14).neighbour(), BankId(15));
    }

    #[test]
    fn channel_mask_basics() {
        let m = ChannelMask::range(4, 3);
        assert_eq!(m.count(), 3);
        assert!(m.contains(ChannelId(4)));
        assert!(m.contains(ChannelId(6)));
        assert!(!m.contains(ChannelId(7)));
        let chans: Vec<_> = m.iter().collect();
        assert_eq!(chans, vec![ChannelId(4), ChannelId(5), ChannelId(6)]);
    }

    #[test]
    fn channel_mask_collect_and_union() {
        let m: ChannelMask = [ChannelId(0), ChannelId(31)].into_iter().collect();
        assert_eq!(m.count(), 2);
        let u = m.union(ChannelMask::single(ChannelId(5)));
        assert_eq!(u.count(), 3);
        assert!(ChannelMask::EMPTY.is_empty());
        assert_eq!(ChannelMask::ALL.count(), 32);
        assert_eq!(u.iter().collect::<Vec<_>>(), [0, 5, 31].map(ChannelId));
        assert_eq!(ChannelMask::ALL.iter().count(), 32);
        assert_eq!(ChannelMask::EMPTY.iter().next(), None);
    }

    #[test]
    #[should_panic(expected = "32 accumulation registers")]
    fn acc_reg_bounds_checked() {
        let _ = AccRegId::new(32);
    }

    #[test]
    fn shared_buffer_slot_addressing() {
        let slot = SbSlot::new(10);
        assert_eq!(slot.byte_addr(), 320);
        assert_eq!(slot.offset(5), SbSlot::new(15));
    }

    #[test]
    fn display_formats() {
        assert_eq!(DeviceId(3).to_string(), "DV3");
        assert_eq!(ChannelId(12).to_string(), "CH12");
        assert_eq!(format!("{:?}", RowAddr(7)), "RO7");
        assert_eq!(format!("{:?}", ColAddr(9)), "CO9");
        assert_eq!(format!("{:?}", AccRegId::new(2)), "ACC2");
    }
}
