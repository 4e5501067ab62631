//! Model test for [`ac_sim::SmallVec`] (ISSUE-19): whatever is pushed, the
//! small vector is the `Vec` of the same pushes — as a slice, on the wire
//! and back — on either side of the inline ↔ spilled boundary.

use ac_sim::{SmallVec, Wire};
use proptest::prelude::*;

proptest! {
    #[test]
    fn small_vec_is_the_vec_of_the_same_pushes(
        items in proptest::collection::vec((0usize..100, any::<bool>()), 0..12),
        fill in 0usize..12,
    ) {
        let mut small: SmallVec<(usize, bool), 4> = SmallVec::new();
        for (i, &item) in items.iter().enumerate() {
            small.push(item);
            prop_assert_eq!(small.len(), i + 1);
            prop_assert_eq!(small.spilled(), i + 1 > 4, "spills on the fifth push");
        }
        prop_assert_eq!(&small[..], &items[..], "order");
        prop_assert!(small.iter().eq(items.iter()));
        let collected: SmallVec<(usize, bool), 4> = items.iter().copied().collect();
        prop_assert_eq!(&collected, &small);

        let bytes = items.to_wire();
        prop_assert_eq!(small.to_wire(), bytes.clone(), "a Vec's bytes");
        let back = SmallVec::<(usize, bool), 4>::from_wire(&bytes);
        prop_assert_eq!(back, Ok(small.clone()));
        prop_assert_eq!(Vec::<(usize, bool)>::from_wire(&small.to_wire()), Ok(items.clone()));

        // `from_elem` is `vec![value; n]`, and stays one after a write
        // through the slice and a push across the boundary.
        let mut flags: SmallVec<bool, 4> = SmallVec::from_elem(false, fill);
        let mut model = vec![false; fill];
        if fill > 0 {
            flags[fill / 2] = true;
            model[fill / 2] = true;
        }
        flags.push(true);
        model.push(true);
        prop_assert_eq!(&flags[..], &model[..]);
        prop_assert_eq!(flags.spilled(), model.len() > 4);
    }
}
