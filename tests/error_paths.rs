//! Error-path coverage across the public API: malformed DSL inputs, invalid
//! [`ScfiConfig`] parameters, and degenerate codebook requests must return
//! the documented `Err` variants — never panic, never silently produce an
//! unprotected netlist.

use scfi_core::{harden, redundancy, ScfiConfig, ScfiError};
use scfi_encode::{CodeError, CodeSpec};
use scfi_fsm::{parse_fsm, FsmError};

fn small_fsm() -> scfi_fsm::Fsm {
    parse_fsm("fsm t { inputs go; state A { if go -> B; } state B { goto A; } }").unwrap()
}

#[test]
fn malformed_dsl_inputs_are_parse_errors() {
    // Each malformed input must surface as `FsmError::Parse` with a usable
    // 1-based line number, not a panic.
    let cases = [
        "not an fsm at all",
        "fsm {",                                               // missing name
        "fsm m { inputs a; state S { if a -> S; }",            // unterminated block
        "fsm m { inputs a }",                                  // missing `;` after name list
        "fsm m { state S { if -> S; } }",                      // guard with no literals
        "fsm m { state S { if a S; } }",                       // missing `->`
        "fsm m { state S { } } trailing",                      // tokens after the block
        "fsm m { state S { goto S; } } fsm n { state T { } }", // two blocks
        "fsm m { state S { out; } }",                          // empty output list
    ];
    for text in cases {
        match parse_fsm(text) {
            Err(FsmError::Parse { line, .. }) => {
                assert!(line >= 1, "line numbers are 1-based for {text:?}")
            }
            other => panic!("{text:?}: expected FsmError::Parse, got {other:?}"),
        }
    }
}

#[test]
fn unresolved_names_are_unknown_name_errors() {
    let e = parse_fsm("fsm m { state S { goto GHOST; } }").unwrap_err();
    assert!(
        matches!(e, FsmError::UnknownName { ref name, .. } if name == "GHOST"),
        "{e:?}"
    );

    let e = parse_fsm("fsm m { state S { if mystery -> S; } }").unwrap_err();
    assert!(
        matches!(e, FsmError::UnknownName { ref name, .. } if name == "mystery"),
        "{e:?}"
    );

    let e = parse_fsm("fsm m { reset NOWHERE; state S { } }").unwrap_err();
    assert!(
        matches!(e, FsmError::UnknownName { ref name, .. } if name == "NOWHERE"),
        "{e:?}"
    );
}

#[test]
fn duplicate_declarations_are_rejected() {
    let e = parse_fsm("fsm m { state S { } state S { } }").unwrap_err();
    assert!(
        matches!(e, FsmError::DuplicateState(ref n) if n == "S"),
        "{e:?}"
    );

    let e = parse_fsm("fsm m { inputs a, a; state S { } }").unwrap_err();
    assert!(
        matches!(e, FsmError::DuplicateSignal(ref n) if n == "a"),
        "{e:?}"
    );

    let e = parse_fsm("fsm m { outputs y, y; state S { } }").unwrap_err();
    assert!(
        matches!(e, FsmError::DuplicateOutput(ref n) if n == "y"),
        "{e:?}"
    );
}

#[test]
fn degenerate_machines_are_rejected() {
    assert!(matches!(
        parse_fsm("fsm m { inputs a; }").unwrap_err(),
        FsmError::Empty
    ));

    let e = parse_fsm("fsm m { inputs a; state S { if a && !a -> S; } }").unwrap_err();
    assert!(matches!(e, FsmError::ContradictoryGuard { .. }), "{e:?}");
}

#[test]
fn error_messages_carry_context() {
    let e = parse_fsm("fsm m {\n  inputs a;\n  state S { if a ->> S; }\n}").unwrap_err();
    let msg = e.to_string();
    assert!(
        msg.contains("line 3"),
        "message should name the line: {msg}"
    );
}

#[test]
fn protection_level_zero_and_one_are_rejected() {
    let fsm = small_fsm();
    for n in [0, 1] {
        assert!(matches!(
            harden(&fsm, &ScfiConfig::new(n)),
            Err(ScfiError::ProtectionLevelTooLow { requested }) if requested == n
        ));
        assert!(matches!(
            redundancy(&fsm, n),
            Err(ScfiError::ProtectionLevelTooLow { requested }) if requested == n
        ));
    }
}

#[test]
fn oversized_protection_levels_are_rejected() {
    let fsm = small_fsm();
    // N = 16 implies 16 error bits per 32-bit MDS instance — at least half
    // the instance, leaving no room for the state share.
    assert!(matches!(
        harden(&fsm, &ScfiConfig::new(16)),
        Err(ScfiError::ErrorBitsTooLarge { error_bits: 16 })
    ));
    // The bound is checked before the state and condition codes are
    // searched, so higher levels fail on it too, and fast: N = 49 would
    // otherwise fail the code search first, and N = 20 take seconds.
    for n in [49, 20] {
        assert!(matches!(
            harden(&fsm, &ScfiConfig::new(n)),
            Err(ScfiError::ErrorBitsTooLarge { error_bits }) if error_bits == n
        ));
        assert!(matches!(
            harden(&fsm, &ScfiConfig::new(n).adaptive_mds(true)),
            Err(ScfiError::ErrorBitsTooLarge { error_bits }) if error_bits == n
        ));
    }
    // Explicit error-bit overrides hit the same bound, in both directions.
    assert!(matches!(
        harden(&fsm, &ScfiConfig::new(2).error_bits(16)),
        Err(ScfiError::ErrorBitsTooLarge { error_bits: 16 })
    ));
    assert!(matches!(
        harden(&fsm, &ScfiConfig::new(2).error_bits(0)),
        Err(ScfiError::ErrorBitsTooLarge { error_bits: 0 })
    ));
}

#[test]
fn codebook_requests_fail_with_specific_variants() {
    // Degenerate parameters.
    assert!(matches!(
        CodeSpec::new(0, 2).build(),
        Err(CodeError::InvalidSpec(_))
    ));
    assert!(matches!(
        CodeSpec::new(4, 0).build(),
        Err(CodeError::InvalidSpec(_))
    ));
    // Satisfiable distance, unsatisfiable width budget.
    assert!(matches!(
        CodeSpec::new(4, 3).max_width(3).build(),
        Err(CodeError::WidthExhausted { max_width: 3, .. })
    ));
}

#[test]
fn scfi_errors_preserve_their_sources() {
    use std::error::Error as _;
    let e = harden(&small_fsm(), &ScfiConfig::new(16)).unwrap_err();
    // ErrorBitsTooLarge is a leaf diagnostic with a self-contained message.
    assert!(e.source().is_none());
    assert!(e.to_string().contains("16"), "{e}");

    let e: ScfiError = FsmError::Empty.into();
    assert!(e.source().is_some(), "wrapped FSM errors keep their source");
}
