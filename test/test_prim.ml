module Rng = Ksa_prim.Rng
module Listx = Ksa_prim.Listx
module Metrics = Ksa_prim.Metrics
module Intern = Ksa_prim.Intern

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false (Rng.next64 a = Rng.next64 b)

let test_rng_copy () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.next64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next64 a) (Rng.next64 b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs" false (Rng.next64 a = Rng.next64 b)

let test_rng_split_at_indexed () =
  (* split_at t i is the (i+1)-th consecutive split, computable
     without advancing the parent *)
  let t = Rng.create ~seed:5 in
  let child = Rng.split_at t 2 in
  let t' = Rng.create ~seed:5 in
  ignore (Rng.split t');
  ignore (Rng.split t');
  let child' = Rng.split t' in
  Alcotest.(check int64) "matches the 3rd split" (Rng.next64 child')
    (Rng.next64 child);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.split_at: negative index") (fun () ->
      ignore (Rng.split_at t (-1)))

let test_rng_split_at_pure () =
  let t = Rng.create ~seed:9 in
  let before = Rng.next64 (Rng.copy t) in
  let a = Rng.split_at t 7 in
  let b = Rng.split_at t 7 in
  Alcotest.(check int64) "deterministic per index" (Rng.next64 a) (Rng.next64 b);
  Alcotest.(check int64) "parent not advanced" before (Rng.next64 t);
  let c = Rng.split_at t 8 in
  Alcotest.(check bool) "distinct indices, distinct streams" false
    (Rng.next64 (Rng.split_at t 7) = Rng.next64 c)

(* The first 32 draws of each stream for three seeds, recorded from
   the generator before its state was unboxed.  Every trial of every
   campaign is a pure function of its seed, so these values are part
   of the contract: checkpoints, corpora and shrunk schedules written
   earlier stay valid only while they hold. *)
let stream_seeds = [ 0; 1; (1 lsl 40) + 7 ]

let pinned_int =
  [|
    [|
      3535418189901915864; 3980143261097177850; 243808509735772839;
      4343119669962883319; 980875101213047373; 3019047300631581045;
      1603648013000153456; 2504574914372785567; 2266080580496311649;
      4169247238562142292; 3656771639923220100; 2407617585096814460;
      220905217336405438; 508830525647836312; 1920512059685349005;
      170468058552254550; 4509441531201521962; 2443074739468484548;
      1887981106604058546; 3174270921034842839; 3278814135248605036;
      1477679070280087687; 3961752516984903606; 3036751520959377830;
      3368130578399377717; 697848454904686526; 3808945078568851840;
      2335485132937423496; 1258842776245514636; 3974724351171140666;
      4086077091462357672; 1999205637303697682
    |];
    [|
      613922171173023329; 2266936587105826356; 4344233626714057392;
      4098490376910890117; 4097618618563484380; 2424772783004877121;
      3480427325644545619; 212757181606642363; 2633352815946178260;
      2711640071595930572; 3727553580931688368; 972331283321964032;
      4196061574266695392; 277429784452780358; 4021071077779581908;
      1540625848015299869; 1340475456586941874; 2908595752443172217;
      1675932570435962104; 3544768432429314693; 608375401004450723;
      750917643125727822; 4573685279124768742; 1135479065272746838;
      2646290167137393871; 441810430377843579; 143145778576439451;
      1971687645240556502; 403506622492436115; 4590913993425861574;
      902526996614146115; 798699213189006558
    |];
    [|
      2062721012830866728; 1944072858514397990; 1991444296092610307;
      2745553569739506402; 2693929029671275767; 202215525352229214;
      3775409760953455194; 4086187936492338809; 3984711736779010974;
      3372388478965383752; 2935823009531179624; 3243992557354899427;
      2773982449092407550; 606986330937410064; 2300019744436253266;
      1119816773287932872; 2416835569130343474; 1018236009902254469;
      3256126144686527470; 3517772750866379089; 467314195744345536;
      1321255465334555502; 2854291049657550499; 496088773946149346;
      1625535729336231015; 531039758103193845; 1315323008960602569;
      1012262190214688039; 4543535899785582638; 1828602984849235360;
      189856105299358478; 393379086802297547
    |];
  |]

let pinned_bool =
  [| "10101010101011111000110011000011"; "11011011001000011100001011111000"; "01010100111100010001100111000011" |]

let pinned_float =
  [|
    [|
      0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6;
      0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2;
      0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1; 0x1.f72bc4820e4c4p-3;
      0x1.e77091186d196p-1; 0x1.95fbb374f2c4ep-2; 0x1.85a64dc00ab7bp-1;
      0x1.0c43407fc177bp-1; 0x1.1c3eeaab30755p-1; 0x1.6a9c1e2c01989p-1;
      0x1.09767f2f2e3bp-1; 0x1.f4a60971d5484p-2; 0x1.879e2e2056fefp-1;
      0x1.a3374d041c8a4p-3; 0x1.b0351a56b489p-1; 0x1.b602c05620173p-1;
      0x1.52071524304bep-1; 0x1.dbebe3b21b945p-1; 0x1.5125ab59ef498p-2;
      0x1.baf803a9ea80ep-1; 0x1.26bd05e3b6989p-1; 0x1.a6e0baf2488ccp-2;
      0x1.034a7ad5f7874p-2; 0x1.45e13b5768b8cp-1; 0x1.dca43af41e9a7p-1;
      0x1.e2d2a5dce5e68p-1; 0x1.bbe9aef5472p-3
    |];
    [|
      0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1;
      0x1.c7061a43b90b2p-2; 0x1.c6ed53634406cp-2; 0x1.869a17ff202ap-1;
      0x1.c133d8d9ae6c7p-1; 0x1.0bcf761e244fp-1; 0x1.245c6378d5f8ep-2;
      0x1.9686b91ce8c2cp-1; 0x1.9dd771dc05592p-2; 0x1.35f9a89a299f1p-1;
      0x1.d1db3e292ea96p-2; 0x1.0f6683ad21af4p-1; 0x1.be6db6b9bd314p-2;
      0x1.561670bd2bca4p-3; 0x1.4a694d4d6ffa1p-1; 0x1.a175a1b4ae575p-1;
      0x1.5d086f2c615f1p-1; 0x1.c4c6306ee7decp-1; 0x1.0e2c46865e98p-4;
      0x1.4d7973c5c2a4p-4; 0x1.fbc7f43b45522p-2; 0x1.f8410633ef3p-4;
      0x1.25cc171746aaep-2; 0x1.88680fb82ef6p-5; 0x1.07f2394f0c94ep-1;
      0x1.6d735dde1a5bep-1; 0x1.6662c8a88b79p-5; 0x1.fed8cfd03212ep-1;
      0x1.3219ae16258bap-1; 0x1.2c5632cf920f1p-1
    |];
    [|
      0x1.7281075462123p-1; 0x1.6beaefdbd4ea6p-1; 0x1.6e8c20250a4fbp-1;
      0x1.30d15366a108p-2; 0x1.2b16116f7d5a6p-2; 0x1.6734f9765824p-6;
      0x1.d193ccb2ccb14p-1; 0x1.c5a8723ac0e5ep-2; 0x1.dd3228d9cc2bcp-1;
      0x1.bb3485d0d568p-1; 0x1.45f11bc7b4318p-2; 0x1.b413e82c8c995p-1;
      0x1.99fca95c6d48cp-1; 0x1.21b1cb687c2bp-1; 0x1.feb4fc58381fp-3;
      0x1.3e298db06567cp-1; 0x1.0c52992954586p-2; 0x1.c43008327785p-4;
      0x1.b4c055e8579c4p-1; 0x1.c3468eb73fc1cp-1; 0x1.19f0ef23ef5b3p-1;
      0x1.49582b61b33dp-1; 0x1.9e71ea5911a91p-1; 0x1.b89d872307a2p-5;
      0x1.68f102224caa4p-3; 0x1.1d7a8762bd66ap-1; 0x1.4903dd3b27fa8p-1;
      0x1.38311c652d38bp-1; 0x1.f86f0ea017a2cp-2; 0x1.658202e7cca17p-1;
      0x1.51408f996758p-6; 0x1.15d640c7ebac8p-1
    |];
  |]

let pinned_split =
  [|
    [|
      6235967106033911276L; (-8675236160134566309L); (-7770742335484233187L);
      1273976351773621849L; (-838572860184133693L); 7774296426002430249L;
      (-9008784446962880368L); (-8120927537572176641L);
      (-719732798981248245L); 136402110108020141L; (-6358231432226012994L);
      (-5521986618557127476L); 5789658409938918846L; (-7025806381570311318L);
      (-7081509218407002299L); 6263376026295458474L; 7266113453845220302L;
      (-1999062528086733577L); (-7713861123312252067L);
      (-6763917040891868047L); 8331011655315868388L; (-2490130877929991357L);
      2161565619933434897L; 2416182325292917121L; (-7757908171732023308L);
      (-7385287541527351777L); (-3502376385122510993L);
      (-2141416384331736177L); 3569697548438403029L; (-1396169357132590478L);
      2536221787013185105L; 2359219928386799999L
    |];
    [|
      7982734928498899980L; 4968291016108700782L; (-533890896212550845L);
      1077443342560040426L; (-4187567158031241052L); 3781009645926030059L;
      2720366857134435820L; (-3965434286479211216L); 1634462012653964458L;
      (-8044073249167901787L); 5823211471517198197L; 5958086589480964065L;
      (-5808938860258193379L); 8013216127053309736L; (-1503530108168802373L);
      6365294745935413400L; 5829401151385018418L; 8337583141413181607L;
      7497439436641613298L; (-231580101341809150L); (-5172371914035866785L);
      (-5924006332532671504L); 1031527683116008938L; 5110715385462788286L;
      (-4057141728816032324L); 875069650394270921L; 6691928165833371116L;
      8634597362149318089L; 5885974080209900052L; (-2447849325811334685L);
      5894688914597193402L; (-6282333260036507671L)
    |];
    [|
      (-2485119757443755025L); 5134690693075905417L; (-6715980131197994303L);
      7937663153571392983L; 1801474189443502667L; (-6256350701813904865L);
      (-3016982008928722525L); (-5595335786874040512L); 7575609499059413438L;
      (-5971857017443245965L); (-4915574940749063751L); 4785351652787999888L;
      513455938792877107L; 4172962561429331432L; 6463194675841404251L;
      288501776364166361L; 2381771170361734914L; 8186546247678844200L;
      2479670607907900685L; 649598064464515497L; 1990378774599930623L;
      7798761123313117011L; (-8844457737505323336L); 7085551546370171404L;
      (-7320552767803853533L); 5478163951025890250L; 8542638631247277052L;
      (-3231375975771691282L); (-7898197758108016362L); 6634922879392163076L;
      (-8348592593654307551L); (-7742470901462749870L)
    |];
  |]

let pinned_split_at =
  [|
    [|
      6235967106033911276L; (-8675236160134566309L); (-7770742335484233187L);
      1273976351773621849L; (-838572860184133693L); 7774296426002430249L;
      (-9008784446962880368L); (-8120927537572176641L);
      (-719732798981248245L); 136402110108020141L; (-6358231432226012994L);
      (-5521986618557127476L); 5789658409938918846L; (-7025806381570311318L);
      (-7081509218407002299L); 6263376026295458474L; 7266113453845220302L;
      (-1999062528086733577L); (-7713861123312252067L);
      (-6763917040891868047L); 8331011655315868388L; (-2490130877929991357L);
      2161565619933434897L; 2416182325292917121L; (-7757908171732023308L);
      (-7385287541527351777L); (-3502376385122510993L);
      (-2141416384331736177L); 3569697548438403029L; (-1396169357132590478L);
      2536221787013185105L; 2359219928386799999L
    |];
    [|
      7982734928498899980L; 4968291016108700782L; (-533890896212550845L);
      1077443342560040426L; (-4187567158031241052L); 3781009645926030059L;
      2720366857134435820L; (-3965434286479211216L); 1634462012653964458L;
      (-8044073249167901787L); 5823211471517198197L; 5958086589480964065L;
      (-5808938860258193379L); 8013216127053309736L; (-1503530108168802373L);
      6365294745935413400L; 5829401151385018418L; 8337583141413181607L;
      7497439436641613298L; (-231580101341809150L); (-5172371914035866785L);
      (-5924006332532671504L); 1031527683116008938L; 5110715385462788286L;
      (-4057141728816032324L); 875069650394270921L; 6691928165833371116L;
      8634597362149318089L; 5885974080209900052L; (-2447849325811334685L);
      5894688914597193402L; (-6282333260036507671L)
    |];
    [|
      (-2485119757443755025L); 5134690693075905417L; (-6715980131197994303L);
      7937663153571392983L; 1801474189443502667L; (-6256350701813904865L);
      (-3016982008928722525L); (-5595335786874040512L); 7575609499059413438L;
      (-5971857017443245965L); (-4915574940749063751L); 4785351652787999888L;
      513455938792877107L; 4172962561429331432L; 6463194675841404251L;
      288501776364166361L; 2381771170361734914L; 8186546247678844200L;
      2479670607907900685L; 649598064464515497L; 1990378774599930623L;
      7798761123313117011L; (-8844457737505323336L); 7085551546370171404L;
      (-7320552767803853533L); 5478163951025890250L; 8542638631247277052L;
      (-3231375975771691282L); (-7898197758108016362L); 6634922879392163076L;
      (-8348592593654307551L); (-7742470901462749870L)
    |];
  |]

let pinned_copy =
  [|
    [|
      7960286522194355700L; 487617019471545679L; (-537132696929009172L);
      1961750202426094747L; 6038094601263162090L; 3207296026000306913L;
      (-4214222208109204676L); 4532161160992623299L; (-884877559730491226L);
      7313543279846440201L; (-4408136866661146890L); (-8781561602181964933L);
      (-8205710985559103185L); (-5382347917484077799L);
      (-8882435919750266709L); 9018883062403043925L; (-4337222557917806714L);
      3775962213208117092L; (-2874830194785090132L); (-2665743766357565737L);
      (-6268013896294600435L); (-1299867002884968598L); 6073503041918755660L;
      (-2487110880056020375L); (-7827675127045402757L); 7617890157137703680L;
      4670970265874846992L; (-6705686484363746538L); (-1273923334512494478L);
      (-1051217853930060465L); 3998411274607395365L; 900130614242687664L
    |];
    [|
      (-4689498862643123097L); (-534904783426661026L); 8196980753821780235L;
      8195237237126968761L; (-4373826470845021568L); (-2262517385565684571L);
      (-8797857673641491083L); 5266705631892356520L; (-3800091893662914666L);
      7455107161863376737L; (-7278709470210847746L); 8392123148533390784L;
      (-8668512467949215094L); 8042142155559163816L; 3081251696030599739L;
      (-6542421123680892061L); (-3406180531968431375L);
      (-5871506895982851602L); (-2133835171996146424L); 1216750802008901446L;
      1501835286251455644L; 9147370558249537485L; 2270958130545493676L;
      5292580334274787743L; 883620860755687159L; (-8937080479701896907L);
      (-5279996746373662805L); 807013244984872231L; (-41544050003052662L);
      (-7418318043626483580L); (-7625973610476762694L); 7326479631639850093L
    |];
    [|
      (-5335226319825979829L); (-5240483444669555196L); 5491107139479012805L;
      5387858059342551534L; 404431050704458429L; (-1672552514947865422L);
      8172375872984677618L; (-1253948563296753861L); (-2478595078924008305L);
      5871646019062359249L; (-2735386922144976955L); (-3675407138669960710L);
      (-8009399374979955682L); 4600039488872506532L; (-6983738490278910065L);
      4833671138260686948L; 2036472019804508938L; (-2711119747481720870L);
      (-2187826535122017631L); (-8288743645366084737L);
      (-6580861106185664806L); (-3514789937539674812L); 992177547892298693L;
      3251071458672462031L; (-8161292520648388119L); (-6592726018933570672L);
      (-7198847656425399732L); 9087071799571165276L; (-5566166067156305090L);
      379712210598716957L; (-8436613863250180715L); (-7264342452407164819L)
    |];
  |]

let test_rng_pinned_streams () =
  List.iteri
    (fun s seed ->
      let name what = Printf.sprintf "seed %d: %s" seed what in
      let fresh () = Rng.create ~seed in
      let t = fresh () in
      Alcotest.(check (array int))
        (name "int") pinned_int.(s)
        (Array.init 32 (fun _ -> Rng.int t max_int));
      let t = fresh () in
      Alcotest.(check string)
        (name "bool") pinned_bool.(s)
        (String.init 32 (fun _ -> if Rng.bool t then '1' else '0'));
      let t = fresh () in
      Alcotest.(check (array (float 0.)))
        (name "float") pinned_float.(s)
        (Array.init 32 (fun _ -> Rng.float t));
      let t = fresh () in
      Alcotest.(check (array int64))
        (name "split") pinned_split.(s)
        (Array.init 32 (fun _ -> Rng.next64 (Rng.split t)));
      let t = fresh () in
      Alcotest.(check (array int64))
        (name "split_at") pinned_split_at.(s)
        (Array.init 32 (fun i -> Rng.next64 (Rng.split_at t i)));
      let t = fresh () in
      ignore (Rng.int t 5);
      let c = Rng.copy t in
      Alcotest.(check (array int64))
        (name "copy") pinned_copy.(s)
        (Array.init 32 (fun _ -> Rng.next64 c)))
    stream_seeds

(* A draw reads and writes the unboxed state in place.  [Rng.float]
   returns a float, which a call from another module receives boxed
   when cross-module inlining is off (dune's dev profile compiles with
   -opaque): that two-word box is all it allocates. *)
let test_rng_draws_allocate_nothing () =
  let t = Rng.create ~seed:3 in
  let sink = ref 0 in
  let words f = Test_util.words_per_loop 1000 f /. 1000. in
  Alcotest.(check (float 0.)) "int words" 0.
    (words (fun () -> sink := !sink + Rng.int t 1000));
  Alcotest.(check (float 0.)) "bool words" 0.
    (words (fun () -> if Rng.bool t then incr sink));
  let w = words (fun () -> if Rng.float t < 0.5 then incr sink) in
  Alcotest.(check bool) (Printf.sprintf "float words %g <= 2" w) true (w <= 2.)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:99 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.failf "out of bounds: %d" x
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: nonpositive bound")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_unit_interval () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of [0,1): %f" x
  done

let test_rng_sample_distinct () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 100 do
    let s = Rng.sample rng 5 (Listx.range 0 10) in
    Alcotest.(check int) "size" 5 (List.length s);
    Alcotest.(check int) "distinct" 5 (Listx.distinct_count s)
  done

let test_rng_pick_member () =
  let rng = Rng.create ~seed:3 in
  let xs = [ 2; 4; 8 ] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (List.mem (Rng.pick rng xs) xs)
  done

let test_listx_range () =
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Listx.range 2 5);
  Alcotest.(check (list int)) "empty" [] (Listx.range 5 5);
  Alcotest.(check (list int)) "reversed empty" [] (Listx.range 7 3)

let test_listx_take_drop () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take over" [ 1 ] (Listx.take 5 [ 1 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop all" [] (Listx.drop 9 [ 1; 2 ])

let test_listx_chunks () =
  Alcotest.(check (list (list int)))
    "chunks" [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Listx.chunks 2 [ 1; 2; 3; 4; 5 ]);
  Alcotest.check_raises "bad size" (Invalid_argument "Listx.chunks") (fun () ->
      ignore (Listx.chunks 0 [ 1 ]))

let test_listx_sets () =
  Alcotest.(check bool) "disjoint" true (Listx.disjoint [ 1; 2 ] [ 3 ]);
  Alcotest.(check bool) "not disjoint" false (Listx.disjoint [ 1; 2 ] [ 2 ]);
  Alcotest.(check bool) "subset" true (Listx.subset [ 1 ] [ 1; 2 ]);
  Alcotest.(check bool) "not subset" false (Listx.subset [ 3 ] [ 1; 2 ]);
  Alcotest.(check (list int)) "intersect" [ 2 ] (Listx.intersect [ 1; 2 ] [ 2; 3 ]);
  Alcotest.(check bool)
    "pairwise disjoint" true
    (Listx.pairwise_disjoint [ [ 1 ]; [ 2 ]; [ 3 ] ]);
  Alcotest.(check bool)
    "pairwise overlap" false
    (Listx.pairwise_disjoint [ [ 1 ]; [ 2; 1 ] ])

let test_listx_combinations () =
  Alcotest.(check (list (list int)))
    "C(3,2)"
    [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
    (Listx.combinations 2 [ 1; 2; 3 ]);
  Alcotest.(check (list (list int))) "C(2,3) empty" [] (Listx.combinations 3 [ 1; 2 ]);
  Alcotest.(check (list (list int))) "C(n,0)" [ [] ] (Listx.combinations 0 [ 1 ])

let test_listx_min_max_by () =
  Alcotest.(check int) "min_by" 3 (Listx.min_by (fun x -> -x) [ 1; 3; 2 ]);
  Alcotest.(check int) "max_by" 3 (Listx.max_by Fun.id [ 1; 3; 2 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Listx.min_by: empty list")
    (fun () -> ignore (Listx.min_by Fun.id []))

(* metrics: the registry is process-global, so every test uses its own
   "test.prim.*" names and asserts deltas, never absolute values *)

let test_metrics_counter () =
  let c = Metrics.counter "test.prim.counter" in
  let base = Metrics.value c in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" (base + 42) (Metrics.value c);
  (* same name, same instrument: the second lookup sees the increments *)
  Alcotest.(check int)
    "registration is idempotent" (base + 42)
    (Metrics.value (Metrics.counter "test.prim.counter"))

let test_metrics_kind_mismatch () =
  ignore (Metrics.counter "test.prim.kind");
  match Metrics.gauge "test.prim.kind" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind mismatch"
  | exception Invalid_argument _ -> ()

let test_metrics_gauge () =
  let g = Metrics.gauge "test.prim.gauge" in
  Metrics.gauge_set g 5;
  Metrics.gauge_max g 3;
  Alcotest.(check int) "watermark holds" 5 (Metrics.gauge_value g);
  Metrics.gauge_max g 9;
  Alcotest.(check int) "watermark rises" 9 (Metrics.gauge_value g)

let test_metrics_timer () =
  let t = Metrics.timer "test.prim.timer" in
  let calls = Metrics.timer_calls t in
  Alcotest.(check int) "result threads through" 42
    (Metrics.time t (fun () -> 42));
  Alcotest.(check int) "call counted" (calls + 1) (Metrics.timer_calls t);
  Alcotest.(check bool) "ns non-negative" true (Metrics.timer_ns t >= 0);
  (try Metrics.time t (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int)
    "raising call still counted" (calls + 2)
    (Metrics.timer_calls t)

let test_metrics_snapshot_delta () =
  let c = Metrics.counter "test.prim.delta" in
  let before = Metrics.snapshot () in
  Metrics.incr c;
  Metrics.incr c;
  let d = Metrics.delta ~before ~after:(Metrics.snapshot ()) in
  Alcotest.(check (option int))
    "delta isolates the two increments" (Some 2)
    (List.assoc_opt "test.prim.delta" d)

let test_metrics_probe () =
  let cell = ref 7 in
  Metrics.probe "test.prim.probe" (fun () -> !cell);
  Alcotest.(check (option int))
    "probe read at snapshot" (Some 7)
    (List.assoc_opt "test.prim.probe" (Metrics.snapshot ()));
  cell := 9;
  Alcotest.(check (option int))
    "probe is lazy" (Some 9)
    (List.assoc_opt "test.prim.probe" (Metrics.snapshot ()))

let test_metrics_json () =
  Alcotest.(check string)
    "flat object" "{\n  \"a.b\": 1,\n  \"c\": -2\n}\n"
    (Metrics.to_json [ ("a.b", 1); ("c", -2) ])

let test_metrics_concurrent_increments () =
  (* the whole point of the sharded counters: concurrent domains must
     never lose an increment *)
  let c = Metrics.counter "test.prim.mt" in
  let base = Metrics.value c in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Metrics.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost increments" (base + 40_000) (Metrics.value c)

(* property tests *)

let binomial n k =
  let rec go acc i = if i > k then acc else go (acc * (n - i + 1) / i) (i + 1) in
  if k < 0 || k > n then 0 else go 1 1

let prop_combinations_count =
  QCheck.Test.make ~name:"combinations count = C(n,k)" ~count:100
    QCheck.(pair (int_range 0 8) (int_range 0 10))
    (fun (k, n) ->
      List.length (Listx.combinations k (Listx.range 0 n)) = binomial n k)

let prop_combinations_distinct_sorted =
  QCheck.Test.make ~name:"combinations are distinct sublists" ~count:50
    QCheck.(pair (int_range 0 5) (int_range 0 8))
    (fun (k, n) ->
      let cs = Listx.combinations k (Listx.range 0 n) in
      List.length (List.sort_uniq compare cs) = List.length cs
      && List.for_all (fun c -> List.sort compare c = c) cs)

let prop_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle preserves the multiset" ~count:100
    QCheck.(pair small_int (small_list int))
    (fun (seed, xs) ->
      let rng = Rng.create ~seed in
      List.sort compare (Rng.shuffle rng xs) = List.sort compare xs)

let prop_chunks_flatten =
  QCheck.Test.make ~name:"chunks flatten back" ~count:100
    QCheck.(pair (int_range 1 5) (small_list int))
    (fun (k, xs) -> List.concat (Listx.chunks k xs) = xs)

(* the interner *)

(* Nested values of the shapes process states are made of.  The leaf
   domains are tiny so generated lists repeat values often; floats
   include nan (equal to itself under [compare]) and both zeros
   (equal to each other). *)
type nested =
  | I of int
  | S of string
  | F of float
  | L of nested list
  | T of nested * nested
  | M of nested Ksa_sim.Pid.Map.t

let gen_nested =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> I i) (int_range (-2) 2);
        map (fun s -> S s) (oneofl [ ""; "a"; "b" ]);
        map (fun f -> F f) (oneofl [ 0.0; -0.0; 1.5; nan; infinity ]);
      ]
  in
  (* the same bindings inserted in either order: maps with equal
     bindings may differ in tree shape, and then differ under
     [compare] *)
  let map_of (rev, kvs) =
    let kvs = if rev then List.rev kvs else kvs in
    M
      (List.fold_left
         (fun m (k, v) -> Ksa_sim.Pid.Map.add k v m)
         Ksa_sim.Pid.Map.empty kvs)
  in
  fix
    (fun self d ->
      if d = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (1, map (fun l -> L l) (list_size (int_bound 3) (self (d - 1))));
            (1, map2 (fun a b -> T (a, b)) (self (d - 1)) (self (d - 1)));
            ( 1,
              map map_of
                (pair bool
                   (list_size (int_bound 4) (pair (int_bound 3) (self (d - 1)))))
            );
          ])
    3

let arb_nested_list =
  QCheck.make
    ~print:(fun vs -> string_of_int (List.length vs) ^ " values")
    QCheck.Gen.(list_size (int_range 1 60) gen_nested)

(* a structurally equal, physically distinct copy *)
let deep_copy v = Marshal.from_string (Marshal.to_string v []) 0

(* The reference: the index of the first [compare]-equal value among
   the distinct values seen so far. *)
let reference_ids vs =
  let seen = ref [] in
  let ids =
    List.map
      (fun v ->
        let rec find i = function
          | [] ->
              seen := !seen @ [ v ];
              i
          | w :: rest -> if compare v w = 0 then i else find (i + 1) rest
        in
        find 0 !seen)
      vs
  in
  (ids, List.length !seen)

let prop_intern_exact =
  QCheck.Test.make ~name:"intern: id a = id b iff compare a b = 0, dense in first-seen order"
    ~count:300 arb_nested_list (fun vs ->
      let r = Intern.create ~size:1 () in
      let ids = List.map (fun v -> Intern.id r (deep_copy v)) vs in
      let expected, distinct = reference_ids vs in
      let pairs_ok =
        List.for_all2
          (fun a ia ->
            List.for_all2 (fun b ib -> (ia = ib) = (compare a b = 0)) vs ids)
          vs ids
      in
      ids = expected && pairs_ok
      && Intern.count r = distinct
      && Intern.watermark r = distinct
      && List.map (Intern.id r) vs = ids)

let prop_intern_dump_restore =
  QCheck.Test.make ~name:"intern: dump then restore reproduces every id"
    ~count:200 arb_nested_list (fun vs ->
      let r = Intern.create ~size:1 () in
      let ids = List.map (Intern.id r) vs in
      let d = Intern.dump r in
      let fresh = Intern.create ~size:1 () in
      let same = Intern.restore r d in
      let count = Intern.count r in
      Intern.restore fresh (Array.map deep_copy d) = Ok ()
      && Intern.count fresh = Array.length d
      && List.map (fun v -> Intern.id fresh (deep_copy v)) vs = ids
      && same = Ok ()
      && count = Array.length d
      && List.map (Intern.id r) vs = ids
      && List.for_all2 (fun v i -> compare d.(i) (Obj.repr v) = 0) vs ids)

let test_intern_restore_conflicts () =
  let dumped = Array.map Obj.repr [| "x"; "y" |] in
  (* "y" is live, but under another id than the dump gives it *)
  let swapped = Intern.create () in
  ignore (Intern.id swapped "y");
  ignore (Intern.id swapped "x");
  Alcotest.(check (result unit string))
    "dumped id is another live id"
    (Error "interner mismatch: dumped id 0 is live id 1")
    (Intern.restore swapped dumped);
  (* "x" is absent, but id 0 is already taken *)
  let taken = Intern.create () in
  ignore (Intern.id taken "z");
  Alcotest.(check (result unit string))
    "cannot graft"
    (Error
       "interner mismatch: cannot graft dumped id 0 into a table of 1 entries")
    (Intern.restore taken dumped)

let test_intern_concurrent () =
  (* Two domains intern overlapping streams into a fresh registry per
     round, each starting with two slots, so inserts and resizes race
     with lock-free lookups.  Every value hashes to 0 modulo 64, so in
     every table a round reaches all of them share one probe cluster:
     a lookup of an absent value walks it to its end, the very slot
     the other domain's insert fills next.  The domains meet at a
     barrier before each round; in a round domain [d] takes the values
     with [i mod 4 <> d], half of them shared, in its own shuffled
     order, so the two often first-see the same value at the same
     moment.  Each stream runs twice; the second pass mostly hits. *)
  let rounds = 4000 and block = 16 in
  let values =
    let rec pick i acc k =
      if k = 0 then Array.of_list (List.rev acc)
      else
        let v = (i mod 7, string_of_int i, [ i; -i ]) in
        if Intern.hash v land 63 = 0 then pick (i + 1) (v :: acc) (k - 1)
        else pick (i + 1) acc k
    in
    pick 0 [] block
  in
  let regs = Array.init rounds (fun _ -> Intern.create ~size:1 ()) in
  let arrived = Atomic.make 0 in
  let worker d =
    let rng = Rng.create ~seed:d in
    let streams =
      Array.init rounds (fun _ ->
          let xs =
            Rng.shuffle rng
              (List.filter (fun i -> i mod 4 <> d) (Listx.range 0 block))
          in
          xs @ xs)
    in
    Domain.spawn (fun () ->
        Array.mapi
          (fun round xs ->
            Atomic.incr arrived;
            while Atomic.get arrived < 2 * (round + 1) do
              Domain.cpu_relax ()
            done;
            List.map (fun i -> (i, Intern.id regs.(round) values.(i))) xs)
          streams)
  in
  let a = worker 0 and b = worker 1 in
  let a = Domain.join a and b = Domain.join b in
  for round = 0 to rounds - 1 do
    let ids = Array.make block (-1) in
    List.iter
      (fun (i, id) ->
        if ids.(i) < 0 then ids.(i) <- id
        else if ids.(i) <> id then
          Alcotest.failf "round %d: value %d got ids %d and %d" round i
            ids.(i) id)
      (a.(round) @ b.(round));
    if Intern.count regs.(round) <> block then
      Alcotest.failf "round %d: count %d" round (Intern.count regs.(round));
    if List.sort compare (Array.to_list ids) <> Listx.range 0 block then
      Alcotest.failf "round %d: ids are not 0..count-1, one per value" round;
    let d = Intern.dump regs.(round) in
    Array.iteri
      (fun i id ->
        if compare d.(id) (Obj.repr values.(i)) <> 0 then
          Alcotest.failf "round %d: dump.(%d) is not value %d" round id i)
      ids
  done

module K2 = Ksa_algo.Kset_flp.Make (struct
  let l = 2
end)

module FK2 = Ksa_sim.Fuzz.Make (K2)

let test_intern_hash_spread () =
  (* kset-flp states differ deep inside their report maps; a hash that
     stops after a few words (the stdlib default reads 10 meaningful
     ones) files them under a few hundred values *)
  let cfg = Ksa_sim.Fuzz.default_config ~k:2 ~n:4 () in
  (match FK2.run cfg ~seed:1001 ~trials:1000 with
  | Ksa_sim.Fuzz.Clean _ -> ()
  | _ -> Alcotest.fail "expected a clean k=2 campaign");
  let vs = Intern.dump Intern.states in
  let hashes = List.sort_uniq compare (Array.to_list (Array.map Intern.hash vs)) in
  let total = Array.length vs and distinct = List.length hashes in
  if total < 1000 then Alcotest.failf "only %d states interned" total;
  if 100 * distinct < 99 * total then
    Alcotest.failf "%d distinct hashes for %d states" distinct total

let suites =
  [
    ( "prim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "split" `Quick test_rng_split_independent;
        Alcotest.test_case "split_at indexed" `Quick test_rng_split_at_indexed;
        Alcotest.test_case "split_at pure" `Quick test_rng_split_at_pure;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float range" `Quick test_rng_float_unit_interval;
        Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
        Alcotest.test_case "pick member" `Quick test_rng_pick_member;
        Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
        Alcotest.test_case "draws allocate nothing" `Quick
          test_rng_draws_allocate_nothing;
      ] );
    ( "prim.listx",
      [
        Alcotest.test_case "range" `Quick test_listx_range;
        Alcotest.test_case "take/drop" `Quick test_listx_take_drop;
        Alcotest.test_case "chunks" `Quick test_listx_chunks;
        Alcotest.test_case "set ops" `Quick test_listx_sets;
        Alcotest.test_case "combinations" `Quick test_listx_combinations;
        Alcotest.test_case "min/max by" `Quick test_listx_min_max_by;
      ] );
    ( "prim.metrics",
      [
        Alcotest.test_case "counter" `Quick test_metrics_counter;
        Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
        Alcotest.test_case "gauge watermark" `Quick test_metrics_gauge;
        Alcotest.test_case "timer" `Quick test_metrics_timer;
        Alcotest.test_case "snapshot delta" `Quick test_metrics_snapshot_delta;
        Alcotest.test_case "probe" `Quick test_metrics_probe;
        Alcotest.test_case "json" `Quick test_metrics_json;
        Alcotest.test_case "concurrent increments" `Quick
          test_metrics_concurrent_increments;
      ] );
    ( "prim.intern",
      [
        QCheck_alcotest.to_alcotest prop_intern_exact;
        QCheck_alcotest.to_alcotest prop_intern_dump_restore;
        Alcotest.test_case "restore conflicts" `Quick
          test_intern_restore_conflicts;
        Alcotest.test_case "concurrent interning" `Quick test_intern_concurrent;
        Alcotest.test_case "hash spread" `Quick test_intern_hash_spread;
      ] );
    Test_util.qsuite "prim.properties"
      [
        prop_combinations_count;
        prop_combinations_distinct_sorted;
        prop_shuffle_permutes;
        prop_chunks_flatten;
      ];
  ]
